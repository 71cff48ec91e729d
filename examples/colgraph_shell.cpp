// colgraph_shell — an interactive (and scriptable) shell over the engine,
// the fourth example application. Feed it commands on stdin:
//
//   load <trace-file>     ingest walk records (see workload/trace_loader.h)
//   seal                  freeze the relation; enables queries
//   append <trace-file>   incremental ingest into a sealed engine: the walks
//                         become a tail dataset (with its own view columns)
//                         that is attached and then compacted in
//   query <text>          run a query in the text language, e.g.
//                           query [1,2,3] AND NOT [3,4]
//                           query SUM [1,2,3,4]
//   autoviews <budget>    select & materialize views for the queries run
//                         so far in this session
//   dump                  print the master relation (Table 1 layout)
//   save <file>           persist the whole engine state
//   open <file>           load a previously saved engine
//   stats                 column-fetch counters since the last `stats`
//   quit
//
// Example session:
//   printf 'load t.txt\nseal\nquery [1,2]\nquit\n' | ./colgraph_shell
#include <cstdio>
#include <iostream>
#include <sstream>

#include "columnstore/debug.h"
#include "core/engine.h"
#include "core/engine_io.h"
#include "query/parser.h"
#include "workload/trace_loader.h"

using namespace colgraph;

namespace {

void PrintMatch(const Bitmap& matches) {
  std::printf("%zu record(s) match:", matches.Count());
  size_t shown = 0;
  matches.ForEachSetBit([&](size_t r) {
    if (shown < 10) std::printf(" r%zu", r);
    ++shown;
  });
  if (shown > 10) std::printf(" ... (+%zu more)", shown - 10);
  std::printf("\n");
}

void PrintAggregate(const PathAggResult& result, AggFn fn) {
  std::printf("%zu matching record(s), %zu maximal path(s)\n",
              result.records.size(), result.paths.size());
  for (size_t p = 0; p < result.paths.size(); ++p) {
    double lo = 0, hi = 0, sum = 0;
    for (size_t r = 0; r < result.values[p].size(); ++r) {
      const double v = result.values[p][r];
      if (r == 0) lo = hi = v;
      lo = std::min(lo, v);
      hi = std::max(hi, v);
      sum += v;
    }
    std::printf("  path %s: %s per record in [%.3f, %.3f], mean %.3f\n",
                result.paths[p].ToString().c_str(), AggFnName(fn), lo, hi,
                result.values[p].empty()
                    ? 0.0
                    : sum / static_cast<double>(result.values[p].size()));
  }
}

// `append`: the one way a sealed engine grows. The walks are sealed into a
// tail dataset carrying the engine's views, attached, and compacted into
// the primary so that `save` can persist them. A failure leaves `engine`
// unchanged.
StatusOr<size_t> AppendTraceFile(ColGraphEngine* engine,
                                 const std::string& path) {
  if (!engine->relation().sealed()) {
    return Status::InvalidArgument("append needs a sealed engine; use load");
  }
  COLGRAPH_ASSIGN_OR_RETURN(std::vector<WalkTrace> traces,
                            LoadTraceFile(path));
  std::vector<GraphRecord> records;
  records.reserve(traces.size());
  for (WalkTrace& trace : traces) {
    COLGRAPH_ASSIGN_OR_RETURN(
        GraphRecord record,
        WalkToRecord(trace.walk, std::move(trace.measures)));
    records.push_back(std::move(record));
  }
  ColGraphEngine next = engine->SharedCopy();
  COLGRAPH_ASSIGN_OR_RETURN(MasterRelation tail,
                            next.BuildTailRelation(records));
  COLGRAPH_RETURN_NOT_OK(next.AttachDataset(
      std::make_shared<const MasterRelation>(std::move(tail))));
  COLGRAPH_RETURN_NOT_OK(next.Compact());
  *engine = std::move(next);
  return records.size();
}

}  // namespace

int main() {
  ColGraphEngine engine;
  std::vector<GraphQuery> history;  // workload for `autoviews`

  std::string line;
  std::printf("colgraph shell — type commands (quit to exit)\n");
  while (std::getline(std::cin, line)) {
    std::istringstream in(line);
    std::string command;
    if (!(in >> command)) continue;

    if (command == "quit" || command == "exit") break;

    if (command == "load" || command == "append") {
      std::string path;
      if (!(in >> path)) {
        std::printf("usage: %s <trace-file>\n", command.c_str());
        continue;
      }
      const auto added = command == "load" ? IngestTraceFile(&engine, path)
                                           : AppendTraceFile(&engine, path);
      if (!added.ok()) {
        std::printf("error: %s\n", added.status().ToString().c_str());
        continue;
      }
      std::printf("ingested %zu record(s); total %zu\n", *added,
                  engine.num_records());
      continue;
    }

    if (command == "seal") {
      if (auto s = engine.Seal(); !s.ok()) {
        std::printf("error: %s\n", s.ToString().c_str());
      } else {
        std::printf("sealed %zu record(s) over %zu edge column(s)\n",
                    engine.num_records(), engine.relation().num_edge_columns());
      }
      continue;
    }

    if (command == "query") {
      std::string text;
      std::getline(in, text);
      const auto parsed = ParseQuery(text);
      if (!parsed.ok()) {
        std::printf("parse error: %s\n", parsed.status().ToString().c_str());
        continue;
      }
      if (!engine.relation().sealed()) {
        std::printf("error: seal the relation first\n");
        continue;
      }
      if (parsed->kind == ParsedQuery::Kind::kMatch) {
        PrintMatch(parsed->expr->Evaluate(engine.query_engine()));
        // Leaves join the workload history for autoviews.
        if (parsed->expr->op() == QueryExpr::Op::kLeaf) {
          history.push_back(parsed->expr->query());
        }
      } else {
        const auto result = engine.RunAggregateQuery(parsed->query, parsed->fn);
        if (!result.ok()) {
          std::printf("error: %s\n", result.status().ToString().c_str());
          continue;
        }
        PrintAggregate(*result, parsed->fn);
        history.push_back(parsed->query);
      }
      continue;
    }

    if (command == "autoviews") {
      size_t budget = 10;
      in >> budget;
      if (history.empty()) {
        std::printf("no queries in this session yet\n");
        continue;
      }
      const auto graph_views =
          engine.SelectAndMaterializeGraphViews(history, budget);
      const auto agg_views =
          engine.SelectAndMaterializeAggViews(history, AggFn::kSum, budget);
      if (!graph_views.ok() || !agg_views.ok()) {
        std::printf("error: %s\n",
                    (!graph_views.ok() ? graph_views.status() : agg_views.status())
                        .ToString()
                        .c_str());
        continue;
      }
      std::printf("materialized %zu graph view(s), %zu aggregate view(s)\n",
                  *graph_views, *agg_views);
      continue;
    }

    if (command == "dump") {
      std::fputs(DumpRelation(engine.relation()).c_str(), stdout);
      continue;
    }

    if (command == "save" || command == "open") {
      std::string path;
      if (!(in >> path)) {
        std::printf("usage: %s <file>\n", command.c_str());
        continue;
      }
      if (command == "save") {
        const Status s = WriteEngine(engine, path);
        std::printf("%s\n", s.ok() ? "saved" : s.ToString().c_str());
      } else {
        auto loaded = ReadEngine(path);
        if (!loaded.ok()) {
          std::printf("error: %s\n", loaded.status().ToString().c_str());
        } else {
          engine = std::move(loaded).value();
          std::printf("opened: %zu record(s), %zu view(s)\n",
                      engine.num_records(),
                      engine.views().num_graph_views() +
                          engine.views().num_agg_views());
        }
      }
      continue;
    }

    if (command == "stats") {
      const FetchStats& s = engine.stats();
      std::printf(
          "bitmap columns: %llu, measure columns: %llu, values: %llu, "
          "partition joins: %llu\n",
          static_cast<unsigned long long>(s.bitmap_columns_fetched),
          static_cast<unsigned long long>(s.measure_columns_fetched),
          static_cast<unsigned long long>(s.values_fetched),
          static_cast<unsigned long long>(s.partition_joins));
      engine.stats().Reset();
      continue;
    }

    std::printf("unknown command '%s'\n", command.c_str());
  }
  return 0;
}
