#include "provenance/store.h"

#include "provenance/hier_store.h"
#include "provenance/naive_store.h"
#include "provenance/txn_store.h"

namespace cpdb::provenance {

const char* StrategyName(Strategy s) {
  switch (s) {
    case Strategy::kNaive:
      return "naive";
    case Strategy::kTransactional:
      return "transactional";
    case Strategy::kHierarchical:
      return "hierarchical";
    case Strategy::kHierarchicalTransactional:
      return "hierarchical-transactional";
  }
  return "?";
}

const char* StrategyShortName(Strategy s) {
  switch (s) {
    case Strategy::kNaive:
      return "N";
    case Strategy::kTransactional:
      return "T";
    case Strategy::kHierarchical:
      return "H";
    case Strategy::kHierarchicalTransactional:
      return "HT";
  }
  return "?";
}

std::unique_ptr<ProvStore> MakeStore(Strategy strategy, ProvBackend* backend,
                                     int64_t first_tid) {
  switch (strategy) {
    case Strategy::kNaive:
      return std::make_unique<NaiveStore>(backend, first_tid);
    case Strategy::kHierarchical:
      return std::make_unique<HierStore>(backend, first_tid);
    case Strategy::kTransactional: {
      TxnStoreOptions opts;
      opts.hierarchical = false;
      return std::make_unique<TxnStore>(backend, opts, first_tid);
    }
    case Strategy::kHierarchicalTransactional: {
      TxnStoreOptions opts;
      opts.hierarchical = true;
      opts.local_op_us = 10.0;
      return std::make_unique<TxnStore>(backend, opts, first_tid);
    }
  }
  return nullptr;
}

}  // namespace cpdb::provenance
