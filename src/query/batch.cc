// Batch (inter-query) parallel evaluation: the paper's workloads are
// thousands of independent small-graph queries over one sealed relation —
// embarrassingly parallel across queries. Each query is evaluated by the
// unchanged serial code path into its own pre-sized output slot, so the
// batch result is bit-identical to a serial loop for any thread count.
#include "obs/metrics.h"
#include "obs/query_log.h"
#include "obs/trace.h"
#include "query/engine.h"
#include "util/thread_pool.h"

namespace colgraph {

namespace {

// Queries vary widely in cost (selectivity short-circuits, view rewrites),
// so chunks stay small to keep the claim-based schedule balanced.
constexpr size_t kQueryGrain = 1;

// Batch-level accounting: how many batches ran and how many queries they
// fanned out. The batch wall time is the batch phase; per-query phase time
// lands in the query phases recorded by the per-query code path.
void CountBatch(size_t num_queries) {
  static obs::Counter& batches =
      obs::MetricsRegistry::Global().GetCounter("query.batch.count");
  static obs::Counter& queries =
      obs::MetricsRegistry::Global().GetCounter("query.batch.queries");
  batches.Increment();
  queries.Add(num_queries);
}

}  // namespace

StatusOr<std::vector<MeasureTable>> QueryEngine::EvaluateBatch(
    const std::vector<GraphQuery>& queries, const QueryOptions& options,
    ThreadPool* pool) const {
  CountBatch(queries.size());
  const obs::Span batch_span(obs::Phase::kBatch, nullptr);
  std::vector<MeasureTable> results(queries.size());
  COLGRAPH_RETURN_NOT_OK(colgraph::ParallelFor(
      pool, 0, queries.size(), kQueryGrain,
      [&](size_t begin, size_t end) -> Status {
        for (size_t i = begin; i < end; ++i) {
          // Poll between queries too: a fired token stops the batch from
          // even starting the remaining queries of this chunk (the
          // per-query phase checks only bound overshoot inside one query).
          COLGRAPH_RETURN_NOT_OK(CheckCancellation(options.cancel));
          COLGRAPH_ASSIGN_OR_RETURN(results[i],
                                    RunGraphQuery(queries[i], options));
        }
        return Status::OK();
      }));
  // A completed batch is a natural durability point for the query log:
  // push the buffered records to the file so a later crash loses at most
  // the in-flight batch. Log failures never fail queries (the log poisons
  // itself and reports at Close).
  if (log_ != nullptr) (void)log_->Flush();
  return results;
}

StatusOr<std::vector<PathAggResult>> QueryEngine::EvaluatePathAggBatch(
    const std::vector<GraphQuery>& queries, AggFn fn,
    const QueryOptions& options, ThreadPool* pool) const {
  CountBatch(queries.size());
  const obs::Span batch_span(obs::Phase::kBatch, nullptr);
  std::vector<PathAggResult> results(queries.size());
  COLGRAPH_RETURN_NOT_OK(colgraph::ParallelFor(
      pool, 0, queries.size(), kQueryGrain,
      [&](size_t begin, size_t end) -> Status {
        for (size_t i = begin; i < end; ++i) {
          COLGRAPH_RETURN_NOT_OK(CheckCancellation(options.cancel));
          COLGRAPH_ASSIGN_OR_RETURN(results[i],
                                    RunAggregateQuery(queries[i], fn, options));
        }
        return Status::OK();
      }));
  if (log_ != nullptr) (void)log_->Flush();
  return results;
}

}  // namespace colgraph
