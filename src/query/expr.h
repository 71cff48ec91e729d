// Boolean query algebra over graph queries (Section 3.2): composite
// conditions like [Gq1 AND Gq2], [Gq1 OR Gq2], [Gq1 AND NOT Gq2] —
// e.g. "orders delivered through region-2 hubs but not via hub F" —
// evaluated as boolean combinations of the per-query match bitmaps.
#pragma once

#include <memory>
#include <vector>

#include "query/engine.h"
#include "util/status.h"

namespace colgraph {

/// \brief An expression tree over graph queries.
///
/// Leaves are graph queries; inner nodes combine answer *sets* with
/// AND / OR / AND-NOT. Built via the static factories:
///
///   auto e = QueryExpr::AndNot(QueryExpr::Or(QueryExpr::Leaf(q1),
///                                            QueryExpr::Leaf(q2)),
///                              QueryExpr::Leaf(q3));
///   Bitmap answer = e->Evaluate(engine);
class QueryExpr {
 public:
  enum class Op : uint8_t { kLeaf, kAnd, kOr, kAndNot };

  static std::shared_ptr<QueryExpr> Leaf(GraphQuery query) {
    auto e = std::make_shared<QueryExpr>();
    e->op_ = Op::kLeaf;
    e->query_ = std::move(query);
    return e;
  }
  static std::shared_ptr<QueryExpr> And(std::shared_ptr<QueryExpr> lhs,
                                        std::shared_ptr<QueryExpr> rhs) {
    return MakeBinary(Op::kAnd, std::move(lhs), std::move(rhs));
  }
  static std::shared_ptr<QueryExpr> Or(std::shared_ptr<QueryExpr> lhs,
                                       std::shared_ptr<QueryExpr> rhs) {
    return MakeBinary(Op::kOr, std::move(lhs), std::move(rhs));
  }
  /// [lhs AND NOT rhs] = [lhs] - [rhs].
  static std::shared_ptr<QueryExpr> AndNot(std::shared_ptr<QueryExpr> lhs,
                                           std::shared_ptr<QueryExpr> rhs) {
    return MakeBinary(Op::kAndNot, std::move(lhs), std::move(rhs));
  }

  Op op() const { return op_; }
  const GraphQuery& query() const { return query_; }
  /// Operands of an inner node (null for a leaf).
  const QueryExpr* lhs() const { return lhs_.get(); }
  const QueryExpr* rhs() const { return rhs_.get(); }

  /// Evaluates the expression to the bitmap of matching record ids.
  /// Leaf matches go through the engine (and thus use materialized views).
  Bitmap Evaluate(const QueryEngine& engine,
                  const QueryOptions& options = {}) const;

  /// Number of leaf queries in the expression.
  size_t NumLeaves() const;

 private:
  static std::shared_ptr<QueryExpr> MakeBinary(Op op,
                                               std::shared_ptr<QueryExpr> lhs,
                                               std::shared_ptr<QueryExpr> rhs) {
    auto e = std::make_shared<QueryExpr>();
    e->op_ = op;
    e->lhs_ = std::move(lhs);
    e->rhs_ = std::move(rhs);
    return e;
  }

  Op op_ = Op::kLeaf;
  GraphQuery query_;
  std::shared_ptr<QueryExpr> lhs_;
  std::shared_ptr<QueryExpr> rhs_;
};

}  // namespace colgraph
