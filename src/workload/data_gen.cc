#include "workload/data_gen.h"

#include "util/rng.h"

namespace cpdb::workload {

namespace {

const char* kOrganelles[] = {"nucleus",      "mitochondrion", "golgi",
                             "cytoplasm",    "membrane",      "lysosome",
                             "peroxisome",   "ribosome",      "vacuole",
                             "cytoskeleton"};

const char* kSpecies[] = {"H.sapiens",    "M.musculus", "S.cerevisiae",
                          "D.melanogaster", "C.elegans", "A.thaliana"};

std::string ProteinName(Rng* rng) {
  // SwissProt-style accession: letter + 5 alphanumerics, e.g. O95477.
  std::string name;
  name.push_back(static_cast<char>('A' + rng->NextBelow(26)));
  for (int i = 0; i < 5; ++i) {
    name.push_back(static_cast<char>('0' + rng->NextBelow(10)));
  }
  return name;
}

/// The root over `entries`, built in one sort (its labels are distinct
/// and well-formed, so the build cannot fail).
tree::Tree Root(std::vector<std::pair<std::string, tree::Tree>> entries) {
  return std::move(tree::Tree::FromChildren(std::move(entries))).value();
}

}  // namespace

tree::Tree GenMimiLike(size_t entries, uint64_t seed) {
  Rng rng(seed);
  std::vector<std::pair<std::string, tree::Tree>> root;
  root.reserve(entries);
  for (size_t i = 0; i < entries; ++i) {
    tree::Tree entry;
    (void)entry.AddChild("name", tree::Tree(tree::Value(ProteinName(&rng))));
    (void)entry.AddChild(
        "organism",
        tree::Tree(tree::Value(kSpecies[rng.NextBelow(6)])));
    (void)entry.AddChild("weight",
                         tree::Tree(tree::Value(rng.NextInt(5000, 250000))));
    tree::Tree interactions;
    size_t n_inter = 1 + rng.NextBelow(3);
    for (size_t j = 0; j < n_inter; ++j) {
      tree::Tree inter;
      (void)inter.AddChild("partner",
                           tree::Tree(tree::Value(ProteinName(&rng))));
      (void)inter.AddChild(
          "evidence", tree::Tree(tree::Value(rng.NextBool(0.5)
                                                 ? std::string("yeast2hybrid")
                                                 : std::string("coIP"))));
      (void)interactions.AddChild("i" + std::to_string(j + 1),
                                  std::move(inter));
    }
    (void)entry.AddChild("interactions", std::move(interactions));
    root.emplace_back("prot" + std::to_string(i + 1), std::move(entry));
  }
  return Root(std::move(root));
}

tree::Tree GenOrganelleLike(size_t entries, uint64_t seed) {
  Rng rng(seed);
  std::vector<std::pair<std::string, tree::Tree>> root;
  root.reserve(entries);
  for (size_t i = 0; i < entries; ++i) {
    tree::Tree entry;
    // Exactly three leaf children: the size-four copy unit.
    (void)entry.AddChild("protein",
                         tree::Tree(tree::Value(ProteinName(&rng))));
    (void)entry.AddChild(
        "organelle",
        tree::Tree(tree::Value(kOrganelles[rng.NextBelow(10)])));
    (void)entry.AddChild(
        "species", tree::Tree(tree::Value(kSpecies[rng.NextBelow(6)])));
    root.emplace_back("o" + std::to_string(i + 1), std::move(entry));
  }
  return Root(std::move(root));
}

Result<std::string> FillOrganelleRelational(relstore::Database* db,
                                            size_t rows, uint64_t seed) {
  Rng rng(seed);
  using relstore::ColumnType;
  using relstore::Datum;
  relstore::Schema schema({{"id", ColumnType::kString, false},
                           {"protein", ColumnType::kString, false},
                           {"organelle", ColumnType::kString, false},
                           {"species", ColumnType::kString, false}});
  CPDB_ASSIGN_OR_RETURN(relstore::Table * table,
                        db->CreateTable("organelle", schema));
  CPDB_RETURN_IF_ERROR(table->CreateIndex("pk_id", {0}, /*unique=*/true));
  std::vector<relstore::Row> batch;
  batch.reserve(rows);
  for (size_t i = 0; i < rows; ++i) {
    batch.push_back({Datum("o" + std::to_string(i + 1)),
                     Datum(ProteinName(&rng)),
                     Datum(std::string(kOrganelles[rng.NextBelow(10)])),
                     Datum(std::string(kSpecies[rng.NextBelow(6)]))});
  }
  CPDB_RETURN_IF_ERROR(table->InsertBatch(batch));
  return std::string("organelle");
}

}  // namespace cpdb::workload
