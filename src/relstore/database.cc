#include "relstore/database.h"

#include "storage/durable.h"

namespace cpdb::relstore {

Database::Database(std::string name) : name_(std::move(name)) {}

Database::~Database() = default;

Database::Database(Database&& other)
    : name_(std::move(other.name_)),
      tables_(std::move(other.tables_)),
      cost_(other.cost_),
      durability_(std::move(other.durability_)) {
  if (durability_ != nullptr) durability_->RebindDatabase(this);
}

Database& Database::operator=(Database&& other) {
  if (this != &other) {
    name_ = std::move(other.name_);
    tables_ = std::move(other.tables_);
    cost_ = other.cost_;
    durability_ = std::move(other.durability_);
    if (durability_ != nullptr) durability_->RebindDatabase(this);
  }
  return *this;
}

Result<std::unique_ptr<Database>> Database::Open(std::string name,
                                                const std::string& dir) {
  auto db = std::make_unique<Database>(std::move(name));
  // Recovery replays into the journal-less database, so nothing replayed
  // is re-logged; the journal attaches to existing tables afterwards and
  // to new tables as CreateTable makes them.
  CPDB_ASSIGN_OR_RETURN(db->durability_,
                        storage::Durability::Attach(db.get(), dir));
  for (auto& [table_name, table] : db->tables_) {
    (void)table_name;
    table->set_journal(db->durability_.get());
  }
  return db;
}

Result<Table*> Database::CreateTable(const std::string& table_name,
                                     Schema schema) {
  if (tables_.count(table_name) > 0) {
    return Status::AlreadyExists("table '" + table_name + "' exists");
  }
  // Journal before the move: nothing can fail past the duplicate check,
  // and the in-memory path keeps its zero-copy Schema handoff.
  if (durable()) durability_->NoteCreateTable(table_name, schema);
  auto table = std::make_unique<Table>(table_name, std::move(schema));
  Table* ptr = table.get();
  tables_[table_name] = std::move(table);
  if (durable()) ptr->set_journal(durability_.get());
  return ptr;
}

Result<Table*> Database::GetTable(const std::string& table_name) {
  auto it = tables_.find(table_name);
  if (it == tables_.end()) {
    return Status::NotFound("no table '" + table_name + "'");
  }
  return it->second.get();
}

Result<const Table*> Database::GetTable(const std::string& table_name) const {
  auto it = tables_.find(table_name);
  if (it == tables_.end()) {
    return Status::NotFound("no table '" + table_name + "'");
  }
  return static_cast<const Table*>(it->second.get());
}

Status Database::DropTable(const std::string& table_name) {
  if (tables_.erase(table_name) == 0) {
    return Status::NotFound("no table '" + table_name + "'");
  }
  if (durable()) durability_->NoteDropTable(table_name);
  return Status::OK();
}

void Database::ForEachTable(
    const std::function<void(const Table&)>& fn) const {
  for (const auto& [name, table] : tables_) {
    (void)name;
    fn(*table);
  }
}

std::vector<std::string> Database::TableNames() const {
  std::vector<std::string> names;
  names.reserve(tables_.size());
  for (const auto& [name, table] : tables_) {
    (void)table;
    names.push_back(name);
  }
  return names;
}

size_t Database::PhysicalBytes() const {
  size_t n = 0;
  for (const auto& [name, table] : tables_) {
    (void)name;
    n += table->PhysicalBytes();
  }
  return n;
}

bool Database::durable() const {
  return durability_ != nullptr && durability_->open();
}

Status Database::Sync() {
  if (durability_ == nullptr) return Status::OK();
  if (!durability_->open()) return Closed();
  return durability_->Sync();
}

Status Database::Checkpoint() {
  if (durability_ == nullptr) {
    return Status::FailedPrecondition("database '" + name_ +
                                      "' is in-memory");
  }
  if (!durability_->open()) return Closed();
  return durability_->Checkpoint();
}

Status Database::Closed() const {
  return Status::FailedPrecondition("database '" + name_ + "' was closed");
}

Status Database::Close() {
  if (durability_ == nullptr) return Status::OK();
  Status st = durability_->Close();
  // Detach the journal: nothing after Close reaches the log, and Sync
  // refuses from now on, so no later commit is acknowledged as durable.
  for (auto& [table_name, table] : tables_) {
    (void)table_name;
    table->set_journal(nullptr);
  }
  return st;
}

}  // namespace cpdb::relstore
