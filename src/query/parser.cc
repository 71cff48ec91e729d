#include "query/parser.h"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <limits>
#include <optional>
#include <string_view>
#include <utility>

namespace colgraph {

namespace {

// <cctype> classifiers take an int that must be EOF or representable as
// unsigned char; passing a raw (signed) char from arbitrary input is UB
// for bytes >= 0x80. These wrappers make every byte value safe.
bool IsSpace(char c) { return std::isspace(static_cast<unsigned char>(c)) != 0; }
bool IsDigit(char c) { return std::isdigit(static_cast<unsigned char>(c)) != 0; }
bool IsAlpha(char c) { return std::isalpha(static_cast<unsigned char>(c)) != 0; }
char ToUpper(char c) {
  return static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
}

// Parenthesized terms recurse (ParseTerm -> ParseExpr -> ParseTerm); a cap
// turns pathological nesting into a clean error instead of stack overflow.
constexpr size_t kMaxParenDepth = 64;
// Binary operators build a left-deep QueryExpr tree whose destructor
// recurses once per node; a cap keeps that bounded for adversarial input.
constexpr size_t kMaxOperators = 4096;

// ParseQuery reserves a graph for at most this many nodes and edges.
constexpr size_t kMaxReserved = 4096;

// The single-character tokens, in the order of their Token kinds.
constexpr std::string_view kPunctuation = "[](),+";

struct Token {
  enum class Kind : uint8_t {
    kLBracket,
    kRBracket,
    kLParen,
    kRParen,
    kComma,
    kPlus,
    kNumber,   // integer, value in `number`, primes in `primes`
    kKeyword,  // AND OR NOT SUM MIN MAX AVG COUNT, upper-cased
    kEnd,
  };
  Kind kind = Kind::kEnd;
  uint64_t number = 0;
  uint32_t primes = 0;
  std::string keyword;
  size_t position = 0;
};

// The aggregate function a keyword names, if any.
std::optional<AggFn> AggFnNamed(const std::string& keyword) {
  for (uint8_t f = 0; f <= static_cast<uint8_t>(AggFn::kAvg); ++f) {
    if (keyword == AggFnName(static_cast<AggFn>(f))) {
      return static_cast<AggFn>(f);
    }
  }
  return std::nullopt;
}

// Recursive descent over a one-token lookahead. A token that fails to lex
// fails the parse when it is reached, at its own position.
class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  StatusOr<ParsedQuery> Parse() {
    COLGRAPH_RETURN_NOT_OK(Advance());
    ParsedQuery result;
    if (token_.kind == Token::Kind::kKeyword) {
      const std::optional<AggFn> fn = AggFnNamed(token_.keyword);
      if (!fn.has_value()) {
        return Error("unknown keyword '" + token_.keyword + "'");
      }
      COLGRAPH_RETURN_NOT_OK(Advance());
      COLGRAPH_ASSIGN_OR_RETURN(result.query, ParseGraph());
      COLGRAPH_RETURN_NOT_OK(ExpectEnd());
      result.kind = ParsedQuery::Kind::kAggregate;
      result.fn = *fn;
      return result;
    }
    COLGRAPH_ASSIGN_OR_RETURN(result.expr, ParseExpr());
    COLGRAPH_RETURN_NOT_OK(ExpectEnd());
    result.kind = ParsedQuery::Kind::kMatch;
    return result;
  }

 private:
  Status Advance() {
    while (pos_ < text_.size() && IsSpace(text_[pos_])) ++pos_;
    token_ = Token{};
    token_.position = pos_;
    if (pos_ >= text_.size()) return Status::OK();
    const char c = text_[pos_];
    if (const size_t punct = kPunctuation.find(c);
        punct != std::string_view::npos) {
      token_.kind = static_cast<Token::Kind>(punct);
      ++pos_;
      return Status::OK();
    }
    if (IsDigit(c)) {
      token_.kind = Token::Kind::kNumber;
      const char* digits = text_.data() + pos_;
      const std::from_chars_result scanned = std::from_chars(
          digits, text_.data() + text_.size(), token_.number);
      if (scanned.ec != std::errc{}) return Error("number too large");
      pos_ += static_cast<size_t>(scanned.ptr - digits);
      while (pos_ < text_.size() && text_[pos_] == '\'') {
        ++token_.primes;
        ++pos_;
      }
      return Status::OK();
    }
    if (IsAlpha(c)) {
      token_.kind = Token::Kind::kKeyword;
      while (pos_ < text_.size() && IsAlpha(text_[pos_])) {
        token_.keyword += ToUpper(text_[pos_]);
        ++pos_;
      }
      return Status::OK();
    }
    return Error("unexpected character '" + std::string(1, c) + "'");
  }

  Status Error(const std::string& message) const {
    return Status::InvalidArgument(message + " at position " +
                                   std::to_string(token_.position));
  }

  Status ExpectEnd() const {
    if (token_.kind != Token::Kind::kEnd) {
      return Error("trailing input after query");
    }
    return Status::OK();
  }

  StatusOr<std::shared_ptr<QueryExpr>> ParseExpr() {
    COLGRAPH_ASSIGN_OR_RETURN(std::shared_ptr<QueryExpr> lhs, ParseTerm());
    while (token_.kind == Token::Kind::kKeyword) {
      const bool is_or = token_.keyword == "OR";
      if (!is_or && token_.keyword != "AND") break;
      if (++num_operators_ > kMaxOperators) {
        return Error("query too complex (operator limit)");
      }
      COLGRAPH_RETURN_NOT_OK(Advance());
      const bool negate = !is_or && token_.kind == Token::Kind::kKeyword &&
                          token_.keyword == "NOT";
      if (negate) COLGRAPH_RETURN_NOT_OK(Advance());
      COLGRAPH_ASSIGN_OR_RETURN(std::shared_ptr<QueryExpr> rhs, ParseTerm());
      if (is_or) {
        lhs = QueryExpr::Or(std::move(lhs), std::move(rhs));
      } else if (negate) {
        lhs = QueryExpr::AndNot(std::move(lhs), std::move(rhs));
      } else {
        lhs = QueryExpr::And(std::move(lhs), std::move(rhs));
      }
    }
    return lhs;
  }

  StatusOr<std::shared_ptr<QueryExpr>> ParseTerm() {
    if (token_.kind != Token::Kind::kLParen) {
      COLGRAPH_ASSIGN_OR_RETURN(GraphQuery graph, ParseGraph());
      return QueryExpr::Leaf(std::move(graph));
    }
    if (paren_depth_ >= kMaxParenDepth) return Error("query nesting too deep");
    ++paren_depth_;
    COLGRAPH_RETURN_NOT_OK(Advance());
    COLGRAPH_ASSIGN_OR_RETURN(std::shared_ptr<QueryExpr> inner, ParseExpr());
    --paren_depth_;
    if (token_.kind != Token::Kind::kRParen) return Error("expected ')'");
    COLGRAPH_RETURN_NOT_OK(Advance());
    return inner;
  }

  // One graph, sized once from the text; each edge is added as its second
  // node is scanned, and a one-node path adds its node.
  StatusOr<GraphQuery> ParseGraph() {
    DirectedGraph g;
    const auto [max_nodes, max_edges] = GraphBounds();
    g.Reserve(max_nodes, max_edges);
    while (true) {
      if (token_.kind != Token::Kind::kLBracket) {
        return Error("expected '[' to start a path");
      }
      NodeRef previous;
      for (bool first = true;; first = false) {
        COLGRAPH_RETURN_NOT_OK(Advance());
        if (token_.kind != Token::Kind::kNumber) {
          return Error("expected a node id");
        }
        if (token_.number > std::numeric_limits<NodeId>::max()) {
          return Error("node id out of range");
        }
        const NodeRef node{static_cast<NodeId>(token_.number), token_.primes};
        // AddEdge inserts its tail first, so the first node's own AddNode
        // leaves the node order as the edges alone would.
        if (first) {
          g.AddNode(node);
        } else {
          g.AddEdge(previous, node);
        }
        previous = node;
        COLGRAPH_RETURN_NOT_OK(Advance());
        if (token_.kind != Token::Kind::kComma) break;
      }
      if (token_.kind != Token::Kind::kRBracket) {
        return Error("expected ']' to close the path");
      }
      COLGRAPH_RETURN_NOT_OK(Advance());
      if (token_.kind != Token::Kind::kPlus) break;
      COLGRAPH_RETURN_NOT_OK(Advance());
    }
    return GraphQuery(std::move(g));
  }

  // Upper bounds on the nodes and edges of the graph that starts at the
  // current token, read from the text up to the first character no graph
  // holds: a node per number, and an edge per ',' but never more than the
  // numbers, nor than kMaxReserved. Past that a graph grows by doubling,
  // so a long text that fails early has reserved little.
  std::pair<size_t, size_t> GraphBounds() const {
    size_t numbers = 0;
    size_t commas = 0;
    for (size_t i = token_.position; i < text_.size(); ++i) {
      const char c = text_[i];
      if (IsDigit(c)) {
        if (i == token_.position || !IsDigit(text_[i - 1])) ++numbers;
      } else if (c == ',') {
        ++commas;
      } else if (!IsSpace(c) && c != '[' && c != ']' && c != '+' &&
                 c != '\'') {
        break;
      }
    }
    return {std::min(numbers, kMaxReserved),
            std::min({commas, numbers, kMaxReserved})};
  }

  const std::string& text_;
  size_t pos_ = 0;
  Token token_;
  size_t paren_depth_ = 0;
  size_t num_operators_ = 0;
};

}  // namespace

StatusOr<ParsedQuery> ParseQuery(const std::string& text) {
  return Parser(text).Parse();
}

}  // namespace colgraph
