// Differential test of the query parser against a reference: the
// recursive-descent parser as it stood before ParseQuery scanned node ids
// with std::from_chars and added each edge to a flat graph as it went.
// The reference builds its graphs with an obviously-correct vector graph
// (linear search, first-seen order), so it shares no code with
// DirectedGraph. Both parse random well-formed and malformed texts and
// every committed fuzz_parser seed; they must agree on the status code,
// the error message byte for byte (error bodies go out on the wire), the
// query kind and function, the expression tree, and each leaf's nodes and
// edges in order, its isolated nodes and its neighbour lists.
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <limits>
#include <memory>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "query/parser.h"

namespace colgraph {
namespace {

// --- The reference -------------------------------------------------------

// First-seen nodes and edges; AddEdge is idempotent and inserts its
// endpoints, tail first, as DirectedGraph promises.
struct ReferenceGraph {
  std::vector<NodeRef> nodes;
  std::vector<Edge> edges;

  void AddNode(NodeRef n) {
    if (std::find(nodes.begin(), nodes.end(), n) == nodes.end()) {
      nodes.push_back(n);
    }
  }
  void AddEdge(NodeRef from, NodeRef to) {
    const Edge e{from, to};
    if (std::find(edges.begin(), edges.end(), e) != edges.end()) return;
    AddNode(from);
    AddNode(to);
    edges.push_back(e);
  }
  // Neighbours in insertion order; self-edges are node measures.
  std::vector<NodeRef> Out(NodeRef n) const {
    std::vector<NodeRef> out;
    for (const Edge& e : edges) {
      if (e.from == n && !e.IsNode()) out.push_back(e.to);
    }
    return out;
  }
  std::vector<NodeRef> In(NodeRef n) const {
    std::vector<NodeRef> in;
    for (const Edge& e : edges) {
      if (e.to == n && !e.IsNode()) in.push_back(e.from);
    }
    return in;
  }
  std::vector<NodeRef> Isolated() const {
    std::vector<NodeRef> isolated;
    for (const NodeRef& n : nodes) {
      if (Out(n).empty() && In(n).empty()) isolated.push_back(n);
    }
    return isolated;
  }
};

struct ReferenceExpr {
  QueryExpr::Op op = QueryExpr::Op::kLeaf;
  ReferenceGraph graph;
  std::unique_ptr<ReferenceExpr> lhs;
  std::unique_ptr<ReferenceExpr> rhs;
};

struct ReferenceQuery {
  ParsedQuery::Kind kind = ParsedQuery::Kind::kMatch;
  std::unique_ptr<ReferenceExpr> expr;
  ReferenceGraph graph;
  AggFn fn = AggFn::kSum;
};

bool IsSpace(char c) { return std::isspace(static_cast<unsigned char>(c)) != 0; }
bool IsDigit(char c) { return std::isdigit(static_cast<unsigned char>(c)) != 0; }
bool IsAlpha(char c) { return std::isalpha(static_cast<unsigned char>(c)) != 0; }
char ToUpper(char c) {
  return static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
}

constexpr size_t kMaxParenDepth = 64;
constexpr size_t kMaxOperators = 4096;

struct Token {
  enum class Kind : uint8_t {
    kNumber,
    kKeyword,
    kLBracket,
    kRBracket,
    kLParen,
    kRParen,
    kComma,
    kPlus,
    kEnd,
  };
  Kind kind = Kind::kEnd;
  uint64_t number = 0;
  uint32_t primes = 0;
  std::string keyword;
  size_t position = 0;
};

class Lexer {
 public:
  explicit Lexer(const std::string& text)
      : text_(text), init_status_(Advance()) {}

  const Status& init_status() const { return init_status_; }
  const Token& current() const { return current_; }

  Status Advance() {
    while (pos_ < text_.size() && IsSpace(text_[pos_])) ++pos_;
    current_ = Token{};
    current_.position = pos_;
    if (pos_ >= text_.size()) {
      current_.kind = Token::Kind::kEnd;
      return Status::OK();
    }
    const char c = text_[pos_];
    switch (c) {
      case '[':
        current_.kind = Token::Kind::kLBracket;
        ++pos_;
        return Status::OK();
      case ']':
        current_.kind = Token::Kind::kRBracket;
        ++pos_;
        return Status::OK();
      case '(':
        current_.kind = Token::Kind::kLParen;
        ++pos_;
        return Status::OK();
      case ')':
        current_.kind = Token::Kind::kRParen;
        ++pos_;
        return Status::OK();
      case ',':
        current_.kind = Token::Kind::kComma;
        ++pos_;
        return Status::OK();
      case '+':
        current_.kind = Token::Kind::kPlus;
        ++pos_;
        return Status::OK();
      default:
        break;
    }
    if (IsDigit(c)) {
      current_.kind = Token::Kind::kNumber;
      uint64_t value = 0;
      while (pos_ < text_.size() && IsDigit(text_[pos_])) {
        const uint64_t digit = static_cast<uint64_t>(text_[pos_] - '0');
        if (value > (std::numeric_limits<uint64_t>::max() - digit) / 10) {
          return Error("number too large");
        }
        value = value * 10 + digit;
        ++pos_;
      }
      current_.number = value;
      while (pos_ < text_.size() && text_[pos_] == '\'') {
        ++current_.primes;
        ++pos_;
      }
      return Status::OK();
    }
    if (IsAlpha(c)) {
      current_.kind = Token::Kind::kKeyword;
      while (pos_ < text_.size() && IsAlpha(text_[pos_])) {
        current_.keyword += ToUpper(text_[pos_]);
        ++pos_;
      }
      return Status::OK();
    }
    return Error("unexpected character '" + std::string(1, c) + "'");
  }

  Status Error(const std::string& message) const {
    return Status::InvalidArgument(message + " at position " +
                                   std::to_string(current_.position));
  }

 private:
  const std::string& text_;
  size_t pos_ = 0;
  Token current_;
  Status init_status_;
};

class ReferenceParser {
 public:
  explicit ReferenceParser(const std::string& text) : lexer_(text) {}

  StatusOr<ReferenceQuery> Parse() {
    COLGRAPH_RETURN_NOT_OK(lexer_.init_status());
    ReferenceQuery result;
    const Token& t = lexer_.current();
    if (t.kind == Token::Kind::kKeyword) {
      AggFn fn;
      if (t.keyword == "SUM") {
        fn = AggFn::kSum;
      } else if (t.keyword == "MIN") {
        fn = AggFn::kMin;
      } else if (t.keyword == "MAX") {
        fn = AggFn::kMax;
      } else if (t.keyword == "AVG") {
        fn = AggFn::kAvg;
      } else if (t.keyword == "COUNT") {
        fn = AggFn::kCount;
      } else {
        return lexer_.Error("unknown keyword '" + t.keyword + "'");
      }
      COLGRAPH_RETURN_NOT_OK(lexer_.Advance());
      COLGRAPH_ASSIGN_OR_RETURN(ReferenceGraph graph, ParseGraph());
      COLGRAPH_RETURN_NOT_OK(ExpectEnd());
      result.kind = ParsedQuery::Kind::kAggregate;
      result.graph = std::move(graph);
      result.fn = fn;
      return result;
    }
    COLGRAPH_ASSIGN_OR_RETURN(std::unique_ptr<ReferenceExpr> expr,
                              ParseExpr());
    COLGRAPH_RETURN_NOT_OK(ExpectEnd());
    result.kind = ParsedQuery::Kind::kMatch;
    result.expr = std::move(expr);
    return result;
  }

 private:
  Status ExpectEnd() {
    if (lexer_.current().kind != Token::Kind::kEnd) {
      return lexer_.Error("trailing input after query");
    }
    return Status::OK();
  }

  static std::unique_ptr<ReferenceExpr> Binary(
      QueryExpr::Op op, std::unique_ptr<ReferenceExpr> lhs,
      std::unique_ptr<ReferenceExpr> rhs) {
    auto e = std::make_unique<ReferenceExpr>();
    e->op = op;
    e->lhs = std::move(lhs);
    e->rhs = std::move(rhs);
    return e;
  }

  StatusOr<std::unique_ptr<ReferenceExpr>> ParseExpr() {
    COLGRAPH_ASSIGN_OR_RETURN(std::unique_ptr<ReferenceExpr> lhs, ParseTerm());
    while (lexer_.current().kind == Token::Kind::kKeyword) {
      const std::string op = lexer_.current().keyword;
      if (op != "AND" && op != "OR") break;
      if (++num_operators_ > kMaxOperators) {
        return lexer_.Error("query too complex (operator limit)");
      }
      COLGRAPH_RETURN_NOT_OK(lexer_.Advance());
      bool negate = false;
      if (op == "AND" && lexer_.current().kind == Token::Kind::kKeyword &&
          lexer_.current().keyword == "NOT") {
        negate = true;
        COLGRAPH_RETURN_NOT_OK(lexer_.Advance());
      }
      COLGRAPH_ASSIGN_OR_RETURN(std::unique_ptr<ReferenceExpr> rhs,
                                ParseTerm());
      if (op == "OR") {
        lhs = Binary(QueryExpr::Op::kOr, std::move(lhs), std::move(rhs));
      } else if (negate) {
        lhs = Binary(QueryExpr::Op::kAndNot, std::move(lhs), std::move(rhs));
      } else {
        lhs = Binary(QueryExpr::Op::kAnd, std::move(lhs), std::move(rhs));
      }
    }
    return lhs;
  }

  StatusOr<std::unique_ptr<ReferenceExpr>> ParseTerm() {
    if (lexer_.current().kind == Token::Kind::kLParen) {
      if (paren_depth_ >= kMaxParenDepth) {
        return lexer_.Error("query nesting too deep");
      }
      ++paren_depth_;
      COLGRAPH_RETURN_NOT_OK(lexer_.Advance());
      COLGRAPH_ASSIGN_OR_RETURN(std::unique_ptr<ReferenceExpr> inner,
                                ParseExpr());
      --paren_depth_;
      if (lexer_.current().kind != Token::Kind::kRParen) {
        return lexer_.Error("expected ')'");
      }
      COLGRAPH_RETURN_NOT_OK(lexer_.Advance());
      return inner;
    }
    COLGRAPH_ASSIGN_OR_RETURN(ReferenceGraph graph, ParseGraph());
    auto leaf = std::make_unique<ReferenceExpr>();
    leaf->graph = std::move(graph);
    return leaf;
  }

  StatusOr<ReferenceGraph> ParseGraph() {
    ReferenceGraph g;
    while (true) {
      COLGRAPH_ASSIGN_OR_RETURN(std::vector<NodeRef> nodes, ParsePath());
      if (nodes.size() == 1) g.AddNode(nodes[0]);
      for (size_t i = 0; i + 1 < nodes.size(); ++i) {
        g.AddEdge(nodes[i], nodes[i + 1]);
      }
      if (lexer_.current().kind != Token::Kind::kPlus) break;
      COLGRAPH_RETURN_NOT_OK(lexer_.Advance());
    }
    return g;
  }

  StatusOr<std::vector<NodeRef>> ParsePath() {
    if (lexer_.current().kind != Token::Kind::kLBracket) {
      return lexer_.Error("expected '[' to start a path");
    }
    COLGRAPH_RETURN_NOT_OK(lexer_.Advance());
    std::vector<NodeRef> nodes;
    while (true) {
      if (lexer_.current().kind != Token::Kind::kNumber) {
        return lexer_.Error("expected a node id");
      }
      if (lexer_.current().number > std::numeric_limits<NodeId>::max()) {
        return lexer_.Error("node id out of range");
      }
      nodes.push_back(NodeRef{static_cast<NodeId>(lexer_.current().number),
                              lexer_.current().primes});
      COLGRAPH_RETURN_NOT_OK(lexer_.Advance());
      if (lexer_.current().kind == Token::Kind::kComma) {
        COLGRAPH_RETURN_NOT_OK(lexer_.Advance());
        continue;
      }
      break;
    }
    if (lexer_.current().kind != Token::Kind::kRBracket) {
      return lexer_.Error("expected ']' to close the path");
    }
    COLGRAPH_RETURN_NOT_OK(lexer_.Advance());
    if (nodes.empty()) return lexer_.Error("empty path");
    return nodes;
  }

  Lexer lexer_;
  size_t paren_depth_ = 0;
  size_t num_operators_ = 0;
};

// --- Comparison ----------------------------------------------------------

std::vector<NodeRef> Collect(const DirectedGraph::NeighborRange& range) {
  return std::vector<NodeRef>(range.begin(), range.end());
}

void ExpectSameGraph(const ReferenceGraph& want, const DirectedGraph& got,
                     const std::string& text) {
  ASSERT_EQ(got.nodes(), want.nodes) << text;
  ASSERT_EQ(got.edges(), want.edges) << text;
  EXPECT_EQ(got.IsolatedNodes(), want.Isolated()) << text;
  for (const NodeRef& n : want.nodes) {
    EXPECT_EQ(Collect(got.OutNeighbors(n)), want.Out(n)) << text;
    EXPECT_EQ(Collect(got.InNeighbors(n)), want.In(n)) << text;
  }
}

void ExpectSameTree(const ReferenceExpr& want, const QueryExpr& got,
                    const std::string& text) {
  ASSERT_EQ(got.op(), want.op) << text;
  if (want.op == QueryExpr::Op::kLeaf) {
    ExpectSameGraph(want.graph, got.query().graph(), text);
    return;
  }
  ASSERT_NE(got.lhs(), nullptr) << text;
  ASSERT_NE(got.rhs(), nullptr) << text;
  ExpectSameTree(*want.lhs, *got.lhs(), text);
  ExpectSameTree(*want.rhs, *got.rhs(), text);
}

void ExpectSameParse(const std::string& text) {
  const StatusOr<ReferenceQuery> want = ReferenceParser(text).Parse();
  const StatusOr<ParsedQuery> got = ParseQuery(text);
  ASSERT_EQ(got.ok(), want.ok()) << text;
  if (!want.ok()) {
    EXPECT_EQ(got.status().code(), want.status().code()) << text;
    EXPECT_EQ(got.status().message(), want.status().message()) << text;
    return;
  }
  ASSERT_EQ(got->kind, want->kind) << text;
  if (want->kind == ParsedQuery::Kind::kAggregate) {
    EXPECT_EQ(got->fn, want->fn) << text;
    ExpectSameGraph(want->graph, got->query.graph(), text);
  } else {
    ASSERT_NE(got->expr, nullptr) << text;
    ExpectSameTree(*want->expr, *got->expr, text);
  }
}

// --- Inputs ----------------------------------------------------------------

size_t Iterations(size_t base) {
  const char* env = std::getenv("COLGRAPH_DIFF_ITERS");
  return env != nullptr ? static_cast<size_t>(std::strtoull(env, nullptr, 10))
                        : base;
}

// Small ids so paths share nodes and repeat edges; now and then an id at
// or past the NodeId and uint64 limits.
std::string NodeText(std::mt19937_64* rng) {
  std::string text;
  switch ((*rng)() % 64) {
    case 0:
      text = "4294967295";
      break;
    case 1:
      text = "4294967296";
      break;
    case 2:
      text = "18446744073709551616";
      break;
    case 3:
      text = "007";
      break;
    default:
      text = std::to_string((*rng)() % 12);
  }
  text.append((*rng)() % 4 == 0 ? (*rng)() % 3 + 1 : 0, '\'');
  return text;
}

std::string Space(std::mt19937_64* rng) {
  static const char* const kSpaces[] = {"", "", "", " ", "  ", "\t", "\n "};
  return kSpaces[(*rng)() % 7];
}

std::string GraphText(std::mt19937_64* rng) {
  std::string text;
  const size_t paths = 1 + (*rng)() % 3;
  for (size_t p = 0; p < paths; ++p) {
    if (p > 0) text += Space(rng) + "+" + Space(rng);
    text += "[" + Space(rng);
    const size_t nodes = 1 + (*rng)() % 6;
    for (size_t i = 0; i < nodes; ++i) {
      if (i > 0) text += Space(rng) + "," + Space(rng);
      text += NodeText(rng);
    }
    text += Space(rng) + "]";
  }
  return text;
}

std::string ExprText(std::mt19937_64* rng, size_t depth) {
  std::string text = depth < 3 && (*rng)() % 4 == 0
                         ? "(" + Space(rng) + ExprText(rng, depth + 1) +
                               Space(rng) + ")"
                         : GraphText(rng);
  const size_t operators = (*rng)() % 3;
  static const char* const kOps[] = {"AND", "OR", "AND NOT", "and", "Or",
                                     "AND not"};
  for (size_t i = 0; i < operators; ++i) {
    text += " " + std::string(kOps[(*rng)() % 6]) + " " + GraphText(rng);
  }
  return text;
}

std::string WellFormed(std::mt19937_64* rng) {
  static const char* const kFns[] = {"SUM ", "MIN ", "max ", "Avg ", "COUNT "};
  if ((*rng)() % 3 == 0) {
    return Space(rng) + kFns[(*rng)() % 5] + GraphText(rng) + Space(rng);
  }
  return Space(rng) + ExprText(rng, 0) + Space(rng);
}

// A well-formed text with a few bytes inserted, deleted or replaced, or
// cut short.
std::string Malformed(std::mt19937_64* rng) {
  static const std::string kAlphabet =
      std::string("[](),+' 0123456789ANDORNOTSUMXz\t") + '\0' + "\x80\xff";
  std::string text = WellFormed(rng);
  const size_t edits = 1 + (*rng)() % 3;
  for (size_t i = 0; i < edits; ++i) {
    const size_t at = text.empty() ? 0 : (*rng)() % (text.size() + 1);
    const char c = kAlphabet[(*rng)() % kAlphabet.size()];
    switch ((*rng)() % 4) {
      case 0:
        text.insert(at, 1, c);
        break;
      case 1:
        if (at < text.size()) text.erase(at, 1);
        break;
      case 2:
        if (at < text.size()) text[at] = c;
        break;
      default:
        text.resize(at);
    }
  }
  return text;
}

TEST(ParserDifferentialTest, WellFormedTextsParseAsTheReferenceDoes) {
  std::mt19937_64 rng(20261019);
  size_t ok = 0;
  const size_t iterations = Iterations(4000);
  for (size_t i = 0; i < iterations; ++i) {
    const std::string text = WellFormed(&rng);
    ExpectSameParse(text);
    if (ParseQuery(text).ok()) ++ok;
    if (HasFatalFailure()) return;
  }
  // The generator mostly writes valid queries; the few ids past the limits
  // must not crowd them out.
  EXPECT_GT(ok, iterations / 2);
}

TEST(ParserDifferentialTest, MalformedTextsFailAsTheReferenceDoes) {
  std::mt19937_64 rng(20261020);
  size_t failed = 0;
  const size_t iterations = Iterations(4000);
  for (size_t i = 0; i < iterations; ++i) {
    const std::string text = Malformed(&rng);
    ExpectSameParse(text);
    if (!ParseQuery(text).ok()) ++failed;
    if (HasFatalFailure()) return;
  }
  EXPECT_GT(failed, iterations / 2);
}

TEST(ParserDifferentialTest, EdgeCasesParseAsTheReferenceDoes) {
  const char* const kTexts[] = {
      "",          " ",          "[",          "]",        "[]",
      "[,]",       "[1,]",       "[1,,2]",     "[1 2]",    "[1]",
      "[7,7]",     "[1,2]+[1,2]", "[1,2]+[2,3]+[3,1]",    "[1,2]+",
      "+[1,2]",    "[1,2]++[3,4]", "[1'',2']",  "[1,'2]",   "'",
      "[1,2] AND", "[1,2] AND NOT", "[1,2] NOT [3,4]",      "[1,2] ANDNOT [3,4]",
      "[1,2] XOR [3,4]", "SUM", "SUM [1,2] [3,4]", "SUM ([1,2])",
      "COUNTER [1,2]", "sum [1,2,3,1]", "([1,2]", "([1,2]))", "()",
      "[4294967295,0]", "[4294967296,0]", "[18446744073709551615,1]",
      "[18446744073709551616,1]", "[99999999999999999999999999,1]",
      "[1,2]\x80", "\xff[1,2]", "[1,2]\n",   "[1\t,\n2]",
      "[00000000000000000000000000001,2]",
  };
  for (const char* text : kTexts) ExpectSameParse(text);
  ExpectSameParse(std::string("[1,\0002]", 6));
  ExpectSameParse(std::string(70, '(') + "[1,2]" + std::string(70, ')'));
  std::string many_ops = "[1,2]";
  for (int i = 0; i < 4100; ++i) many_ops += " OR [1,2]";
  ExpectSameParse(many_ops);
}

TEST(ParserDifferentialTest, FuzzCorpusSeedsParseAsTheReferenceDoes) {
  const std::filesystem::path corpus =
      std::filesystem::path(COLGRAPH_SOURCE_DIR) / "fuzz/corpus/fuzz_parser";
  size_t seeds = 0;
  for (const auto& entry : std::filesystem::directory_iterator(corpus)) {
    std::ifstream in(entry.path(), std::ios::binary);
    std::stringstream bytes;
    bytes << in.rdbuf();
    ExpectSameParse(bytes.str());
    ++seeds;
  }
  EXPECT_GE(seeds, 18u);
}

}  // namespace
}  // namespace colgraph
