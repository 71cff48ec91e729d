// Materialization of selected views into the master relation (Section 5.1).
// Both view kinds are computed in a single pass over the existing columns —
// the paper's key practicality argument versus mined graph indexes.
#pragma once

#include <vector>

#include "columnstore/master_relation.h"
#include "util/status.h"
#include "views/view_defs.h"

namespace colgraph {

class ThreadPool;

/// \brief Materializes a graph view: ANDs the bitmaps of the view's edges
/// into one new bitmap column bv. Registers the view in `catalog` and
/// returns the relation's view index.
StatusOr<size_t> MaterializeGraphView(const GraphViewDef& def,
                                      MasterRelation* relation,
                                      ViewCatalog* catalog);

/// \brief Materializes an aggregate graph view F_p: computes bp (the AND of
/// the path elements' bitmaps) and mp (the aggregate of the elements'
/// measures, per record containing p). For AVG the stored value is the SUM
/// sub-aggregate; the element count is known statically from the
/// definition. Returns the relation's aggregate-view index.
StatusOr<size_t> MaterializeAggView(const AggViewDef& def,
                                    MasterRelation* relation,
                                    ViewCatalog* catalog);

// --- Batch materialization (intra-materialization parallelism). ---
//
// Each view's column is an independent read-only pass over the sealed base
// columns, so a batch computes all of them across `pool` (nullptr = serial)
// and then registers the results serially in definition order. View
// indices, bitmap words and packed values are therefore bit-identical to
// materializing the definitions one by one — only the wall clock changes.
// Validation happens up front: on error nothing is registered.

/// \brief Materializes every definition in `defs`; returns the relation
/// view index of each, aligned with `defs`.
StatusOr<std::vector<size_t>> MaterializeGraphViews(
    const std::vector<GraphViewDef>& defs, MasterRelation* relation,
    ViewCatalog* catalog, ThreadPool* pool = nullptr);

/// \brief Materializes every aggregate-view definition in `defs`; returns
/// the relation's aggregate-view index of each, aligned with `defs`.
StatusOr<std::vector<size_t>> MaterializeAggViews(
    const std::vector<AggViewDef>& defs, MasterRelation* relation,
    ViewCatalog* catalog, ThreadPool* pool = nullptr);

/// \brief Gives `segment`, a sealed slice of the collection `catalog`
/// describes (DESIGN.md §14), every catalog view it lacks, over its own
/// records, at the column the catalog records. A view naming an edge the
/// segment never grew holds none of its records. InvalidArgument, with
/// `segment` untouched, when the catalog's columns do not continue its.
[[nodiscard]] Status MaterializeCatalogViews(const ViewCatalog& catalog,
                                             MasterRelation* segment,
                                             ThreadPool* pool = nullptr);

}  // namespace colgraph
