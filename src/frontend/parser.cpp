// Recursive-descent parser producing the AST; precedence-climbing
// expressions plus the OpenMP pragma grammar.
#include "frontend/parser.hpp"

#include <cstdlib>
#include <cstring>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "frontend/lexer.hpp"

namespace pg::frontend {
namespace {


/// Binary operator precedence (C precedence levels, comma excluded).
int binary_precedence(TokenKind kind) {
  switch (kind) {
    case TokenKind::kPipePipe: return 1;
    case TokenKind::kAmpAmp: return 2;
    case TokenKind::kPipe: return 3;
    case TokenKind::kCaret: return 4;
    case TokenKind::kAmp: return 5;
    case TokenKind::kEqualEqual:
    case TokenKind::kExclaimEqual: return 6;
    case TokenKind::kLess:
    case TokenKind::kGreater:
    case TokenKind::kLessEqual:
    case TokenKind::kGreaterEqual: return 7;
    case TokenKind::kLessLess:
    case TokenKind::kGreaterGreater: return 8;
    case TokenKind::kPlus:
    case TokenKind::kMinus: return 9;
    case TokenKind::kStar:
    case TokenKind::kSlash:
    case TokenKind::kPercent: return 10;
    default: return -1;
  }
}

std::string_view operator_spelling(TokenKind kind) {
  switch (kind) {
    case TokenKind::kPipePipe: return "||";
    case TokenKind::kAmpAmp: return "&&";
    case TokenKind::kPipe: return "|";
    case TokenKind::kCaret: return "^";
    case TokenKind::kAmp: return "&";
    case TokenKind::kEqualEqual: return "==";
    case TokenKind::kExclaimEqual: return "!=";
    case TokenKind::kLess: return "<";
    case TokenKind::kGreater: return ">";
    case TokenKind::kLessEqual: return "<=";
    case TokenKind::kGreaterEqual: return ">=";
    case TokenKind::kLessLess: return "<<";
    case TokenKind::kGreaterGreater: return ">>";
    case TokenKind::kPlus: return "+";
    case TokenKind::kMinus: return "-";
    case TokenKind::kStar: return "*";
    case TokenKind::kSlash: return "/";
    case TokenKind::kPercent: return "%";
    case TokenKind::kEqual: return "=";
    case TokenKind::kPlusEqual: return "+=";
    case TokenKind::kMinusEqual: return "-=";
    case TokenKind::kStarEqual: return "*=";
    case TokenKind::kSlashEqual: return "/=";
    case TokenKind::kPercentEqual: return "%=";
    case TokenKind::kExclaim: return "!";
    case TokenKind::kTilde: return "~";
    default: return "?";
  }
}

bool is_compound_assign(TokenKind kind) {
  return kind == TokenKind::kPlusEqual || kind == TokenKind::kMinusEqual ||
         kind == TokenKind::kStarEqual || kind == TokenKind::kSlashEqual ||
         kind == TokenKind::kPercentEqual;
}

QualType scalar(BaseType base) { return {base, 0, {}, false}; }

/// Usual arithmetic conversions, with pointers and arrays winning.
QualType binary_result_type(const QualType& lhs, const QualType& rhs) {
  if (lhs.is_pointer() || lhs.is_array()) return lhs;
  if (rhs.is_pointer() || rhs.is_array()) return rhs;
  if (lhs.base == BaseType::kDouble || rhs.base == BaseType::kDouble)
    return scalar(BaseType::kDouble);
  if (lhs.base == BaseType::kFloat || rhs.base == BaseType::kFloat)
    return scalar(BaseType::kFloat);
  if (lhs.base == BaseType::kLong || rhs.base == BaseType::kLong ||
      lhs.base == BaseType::kULong || rhs.base == BaseType::kULong)
    return scalar(BaseType::kLong);
  return scalar(BaseType::kInt);
}

/// Type of the binary operator `op`: comparisons and logical operators
/// yield int, the rest follow binary_result_type.
QualType binary_type(TokenKind op, const QualType& lhs, const QualType& rhs) {
  switch (op) {
    case TokenKind::kLess:
    case TokenKind::kGreater:
    case TokenKind::kLessEqual:
    case TokenKind::kGreaterEqual:
    case TokenKind::kEqualEqual:
    case TokenKind::kExclaimEqual:
    case TokenKind::kAmpAmp:
    case TokenKind::kPipePipe:
      return scalar(BaseType::kInt);
    default:
      return binary_result_type(lhs, rhs);
  }
}

/// Calls `convert` on a NUL-terminated copy of `text` (a view into the
/// source is not terminated where the literal ends).
template <typename Convert>
auto with_c_string(std::string_view text, Convert convert) {
  char buffer[64];
  if (text.size() < sizeof buffer) {
    std::memcpy(buffer, text.data(), text.size());
    buffer[text.size()] = '\0';
    return convert(buffer);
  }
  return convert(std::string(text).c_str());
}

/// `raw` with each backslash-newline continuation folded into one space.
std::string fold_continuations(std::string_view raw) {
  std::string out;
  out.reserve(raw.size());
  for (std::size_t i = 0; i < raw.size(); ++i) {
    if (raw[i] == '\\' && i + 1 < raw.size() && raw[i + 1] == '\n') {
      out += ' ';
      ++i;
    } else {
      out += raw[i];
    }
  }
  return out;
}

class Parser {
 public:
  Parser(std::span<const Token> tokens, AstContext& context, Diagnostics& diags)
      : tokens_(tokens), context_(context), diags_(diags) {
    check(!tokens_.empty() && tokens_.back().is(TokenKind::kEof),
          "token stream must end with EOF");
    scratch_.reserve(64);
    scope_.reserve(32);
  }

  /// Parses the token stream as a translation unit; returns nullptr and
  /// fills diagnostics on error.
  AstNode* parse_translation_unit();

 private:
  // --- token stream ------------------------------------------------------
  [[nodiscard]] const Token& peek(std::size_t ahead = 0) const {
    return tokens_[std::min(pos_ + ahead, tokens_.size() - 1)];
  }
  const Token& advance() {
    const Token& tok = tokens_[pos_];
    if (pos_ + 1 < tokens_.size()) ++pos_;
    return tok;
  }
  [[nodiscard]] bool at(TokenKind kind) const { return peek().kind == kind; }
  bool accept(TokenKind kind) {
    if (!at(kind)) return false;
    advance();
    return true;
  }
  const Token& expect(TokenKind kind, std::string_view what);

  // --- error handling ----------------------------------------------------
  struct ParseError {};
  [[noreturn]] void fail(std::string_view message);

  // --- nesting -----------------------------------------------------------
  /// Nesting levels opened by one parse function; they close when it
  /// returns or unwinds.
  class Levels {
   public:
    explicit Levels(Parser& parser) : parser_(parser) {}
    Levels(const Levels&) = delete;
    Levels& operator=(const Levels&) = delete;
    ~Levels() { parser_.depth_ -= opened_; }
    /// Opens one level at the current token; fails past kMaxNestingDepth.
    void open() {
      ++opened_;
      if (++parser_.depth_ > kMaxNestingDepth)
        parser_.fail("nesting deeper than " + std::to_string(kMaxNestingDepth) +
                     " levels");
    }

   private:
    Parser& parser_;
    int opened_ = 0;
  };

  // --- children ----------------------------------------------------------
  // Children of the nodes still open, innermost last. A variadic node notes
  // the stack height, pushes its children as it parses them and takes them
  // as its span when it completes.
  [[nodiscard]] std::size_t open_children() const { return scratch_.size(); }
  AstNode* close_children(AstNode* node, std::size_t mark) {
    context_.set_children(node, std::span<AstNode* const>(scratch_).subspan(mark));
    scratch_.resize(mark);
    return node;
  }

  // --- scopes ------------------------------------------------------------
  // One stack of (name, decl) bindings; a block notes the height on entry
  // and cuts back to it on exit. Lookup scans from the top, so the
  // innermost binding of a name shadows the outer ones.
  [[nodiscard]] std::size_t open_scope() const { return scope_.size(); }
  void close_scope(std::size_t mark) { scope_.resize(mark); }
  void declare(std::string_view name, AstNode* decl) { scope_.emplace_back(name, decl); }
  [[nodiscard]] AstNode* lookup(std::string_view name) const {
    for (auto it = scope_.rbegin(); it != scope_.rend(); ++it)
      if (it->first == name) return it->second;
    return nullptr;
  }

  // --- declarations ------------------------------------------------------
  [[nodiscard]] bool at_type_specifier() const;
  QualType parse_type_specifier();
  AstNode* parse_function_or_global(const QualType& base);
  AstNode* parse_parm_var_decl();
  AstNode* parse_decl_stmt();
  AstNode* parse_var_decl(const QualType& base_type);
  void parse_declarator_suffix(QualType& type);

  // --- statements --------------------------------------------------------
  AstNode* parse_statement();
  AstNode* parse_compound_stmt();
  AstNode* parse_if_stmt();
  AstNode* parse_for_stmt();
  AstNode* parse_while_stmt();
  AstNode* parse_do_stmt();
  AstNode* parse_return_stmt();
  AstNode* parse_omp_directive(const Token& pragma);

  // --- OpenMP clause parsing (operates on the pragma's token stream) -----
  AstNode* parse_omp_clause();
  AstNode* parse_omp_var_or_section();

  // --- expressions -------------------------------------------------------
  AstNode* parse_expression();  // comma has lowest precedence
  AstNode* parse_assignment();
  AstNode* parse_conditional();
  AstNode* parse_binary(int min_precedence);
  AstNode* parse_unary();
  AstNode* parse_postfix();
  AstNode* parse_primary();

  AstNode* make_node(NodeKind kind, const Token& tok) {
    return context_.create(kind, {tok.location, tok.location});
  }
  /// A DeclRefExpr for `tok`, resolved against the current scopes.
  AstNode* make_decl_ref(const Token& tok);

  std::span<const Token> tokens_;
  std::size_t pos_ = 0;
  AstContext& context_;
  Diagnostics& diags_;
  int depth_ = 0;
  std::vector<AstNode*> scratch_;
  std::vector<std::pair<std::string_view, AstNode*>> scope_;
  std::vector<Token> pragma_tokens_;  // the current pragma body, re-lexed
};

const Token& Parser::expect(TokenKind kind, std::string_view what) {
  if (!at(kind)) {
    fail(std::string("expected ") + std::string(token_kind_name(kind)) +
         " while parsing " + std::string(what) + ", found " +
         std::string(token_kind_name(peek().kind)));
  }
  return advance();
}

void Parser::fail(std::string_view message) {
  diags_.error(peek().location, std::string(message));
  throw ParseError{};
}

AstNode* Parser::make_decl_ref(const Token& tok) {
  AstNode* ref = make_node(NodeKind::kDeclRefExpr, tok);
  ref->set_text(tok.text);
  if (AstNode* decl = lookup(tok.text); decl != nullptr) {
    ref->set_referenced_decl(decl);
    ref->set_type(decl->type());
  }
  return ref;
}

// ---------------------------------------------------------------------------
// Declarations
// ---------------------------------------------------------------------------

AstNode* Parser::parse_translation_unit() {
  AstNode* tu = make_node(NodeKind::kTranslationUnit, peek());
  try {
    const std::size_t children = open_children();
    while (!at(TokenKind::kEof)) {
      accept(TokenKind::kKwStatic);
      if (!at_type_specifier())
        fail("expected a type specifier at file scope");
      const QualType base = parse_type_specifier();
      scratch_.push_back(parse_function_or_global(base));
    }
    close_children(tu, children);
  } catch (const ParseError&) {
    return nullptr;
  }
  return tu;
}

bool Parser::at_type_specifier() const {
  switch (peek().kind) {
    case TokenKind::kKwInt:
    case TokenKind::kKwLong:
    case TokenKind::kKwFloat:
    case TokenKind::kKwDouble:
    case TokenKind::kKwChar:
    case TokenKind::kKwVoid:
    case TokenKind::kKwUnsigned:
    case TokenKind::kKwConst:
      return true;
    default:
      return false;
  }
}

QualType Parser::parse_type_specifier() {
  QualType type;
  bool is_unsigned = false;
  bool saw_base = false;
  for (;;) {
    switch (peek().kind) {
      case TokenKind::kKwConst: advance(); type.is_const = true; continue;
      case TokenKind::kKwUnsigned: advance(); is_unsigned = true; continue;
      case TokenKind::kKwInt: advance(); type.base = BaseType::kInt; saw_base = true; continue;
      case TokenKind::kKwLong:
        advance();
        type.base = BaseType::kLong;
        saw_base = true;
        accept(TokenKind::kKwLong);  // "long long" collapses to long
        accept(TokenKind::kKwInt);
        continue;
      case TokenKind::kKwFloat: advance(); type.base = BaseType::kFloat; saw_base = true; continue;
      case TokenKind::kKwDouble: advance(); type.base = BaseType::kDouble; saw_base = true; continue;
      case TokenKind::kKwChar: advance(); type.base = BaseType::kChar; saw_base = true; continue;
      case TokenKind::kKwVoid: advance(); type.base = BaseType::kVoid; saw_base = true; continue;
      default: break;
    }
    break;
  }
  if (is_unsigned) {
    type.base = (type.base == BaseType::kLong) ? BaseType::kULong : BaseType::kUInt;
    saw_base = true;
  }
  if (!saw_base) fail("expected a type specifier");
  while (accept(TokenKind::kStar)) ++type.pointer_depth;
  return type;
}

void Parser::parse_declarator_suffix(QualType& type) {
  while (at(TokenKind::kLBracket)) {
    if (type.array_extents.size() == ArrayExtents::kMaxRank)
      fail("array declarator has more than " + std::to_string(ArrayExtents::kMaxRank) +
           " dimensions");
    advance();
    if (accept(TokenKind::kRBracket)) {
      type.array_extents.push_back(QualType::kUnknownExtent);
      continue;
    }
    const AstNode* extent = parse_conditional();
    // Fold literal extents immediately; more complex extents stay unknown
    // here and are resolved later by const_eval when needed.
    if (extent->is(NodeKind::kIntegerLiteral)) {
      type.array_extents.push_back(extent->int_value());
    } else {
      type.array_extents.push_back(QualType::kUnknownExtent);
    }
    expect(TokenKind::kRBracket, "array declarator");
  }
}

AstNode* Parser::parse_function_or_global(const QualType& base) {
  const Token& name = expect(TokenKind::kIdentifier, "declaration name");
  if (at(TokenKind::kLParen)) {
    AstNode* fn = make_node(NodeKind::kFunctionDecl, name);
    fn->set_text(name.text);
    fn->set_type(base);
    declare(name.text, fn);
    advance();  // '('
    const std::size_t scope = open_scope();
    const std::size_t children = open_children();
    if (!at(TokenKind::kRParen)) {
      if (at(TokenKind::kKwVoid) && peek(1).is(TokenKind::kRParen)) {
        advance();
      } else {
        do {
          scratch_.push_back(parse_parm_var_decl());
        } while (accept(TokenKind::kComma));
      }
    }
    expect(TokenKind::kRParen, "parameter list");
    // A forward declaration keeps its parameters and has no body.
    if (!accept(TokenKind::kSemi)) scratch_.push_back(parse_compound_stmt());
    close_children(fn, children);
    close_scope(scope);
    return fn;
  }

  // Global variable declaration (single declarator).
  AstNode* decl_stmt = make_node(NodeKind::kDeclStmt, name);
  AstNode* var = make_node(NodeKind::kVarDecl, name);
  var->set_text(name.text);
  QualType type = base;
  parse_declarator_suffix(type);
  var->set_type(type);
  declare(name.text, var);
  if (accept(TokenKind::kEqual)) context_.set_children(var, {parse_assignment()});
  expect(TokenKind::kSemi, "global variable declaration");
  context_.set_children(decl_stmt, {var});
  return decl_stmt;
}

AstNode* Parser::parse_parm_var_decl() {
  QualType type = parse_type_specifier();
  const Token& name = expect(TokenKind::kIdentifier, "parameter name");
  AstNode* parm = make_node(NodeKind::kParmVarDecl, name);
  parm->set_text(name.text);
  parse_declarator_suffix(type);
  parm->set_type(type);
  declare(name.text, parm);
  return parm;
}

AstNode* Parser::parse_decl_stmt() {
  const Token& start = peek();
  const QualType base = parse_type_specifier();
  AstNode* decl_stmt = make_node(NodeKind::kDeclStmt, start);
  const std::size_t children = open_children();
  do {
    scratch_.push_back(parse_var_decl(base));
  } while (accept(TokenKind::kComma));
  expect(TokenKind::kSemi, "declaration statement");
  return close_children(decl_stmt, children);
}

AstNode* Parser::parse_var_decl(const QualType& base_type) {
  QualType type = base_type;
  while (accept(TokenKind::kStar)) ++type.pointer_depth;
  const Token& name = expect(TokenKind::kIdentifier, "variable name");
  AstNode* var = make_node(NodeKind::kVarDecl, name);
  var->set_text(name.text);
  parse_declarator_suffix(type);
  var->set_type(type);
  declare(name.text, var);
  if (accept(TokenKind::kEqual)) {
    if (at(TokenKind::kLBrace)) {
      AstNode* init_list = make_node(NodeKind::kInitListExpr, peek());
      advance();
      const std::size_t children = open_children();
      if (!at(TokenKind::kRBrace)) {
        do {
          scratch_.push_back(parse_assignment());
        } while (accept(TokenKind::kComma));
      }
      expect(TokenKind::kRBrace, "initializer list");
      context_.set_children(var, {close_children(init_list, children)});
    } else {
      context_.set_children(var, {parse_assignment()});
    }
  }
  return var;
}

// ---------------------------------------------------------------------------
// Statements
// ---------------------------------------------------------------------------

AstNode* Parser::parse_statement() {
  Levels level(*this);
  level.open();
  switch (peek().kind) {
    case TokenKind::kPragma: {
      const Token pragma = advance();
      return parse_omp_directive(pragma);
    }
    case TokenKind::kLBrace: return parse_compound_stmt();
    case TokenKind::kKwIf: return parse_if_stmt();
    case TokenKind::kKwFor: return parse_for_stmt();
    case TokenKind::kKwWhile: return parse_while_stmt();
    case TokenKind::kKwDo: return parse_do_stmt();
    case TokenKind::kKwReturn: return parse_return_stmt();
    case TokenKind::kKwBreak: {
      AstNode* node = make_node(NodeKind::kBreakStmt, advance());
      expect(TokenKind::kSemi, "break statement");
      return node;
    }
    case TokenKind::kKwContinue: {
      AstNode* node = make_node(NodeKind::kContinueStmt, advance());
      expect(TokenKind::kSemi, "continue statement");
      return node;
    }
    case TokenKind::kSemi: return make_node(NodeKind::kNullStmt, advance());
    default: break;
  }
  if (at_type_specifier()) return parse_decl_stmt();
  AstNode* expr = parse_expression();
  expect(TokenKind::kSemi, "expression statement");
  return expr;
}

AstNode* Parser::parse_compound_stmt() {
  const Token& brace = expect(TokenKind::kLBrace, "compound statement");
  AstNode* compound = make_node(NodeKind::kCompoundStmt, brace);
  const std::size_t scope = open_scope();
  const std::size_t children = open_children();
  while (!at(TokenKind::kRBrace) && !at(TokenKind::kEof))
    scratch_.push_back(parse_statement());
  expect(TokenKind::kRBrace, "compound statement");
  close_scope(scope);
  return close_children(compound, children);
}

AstNode* Parser::parse_if_stmt() {
  const Token& kw = expect(TokenKind::kKwIf, "if statement");
  AstNode* node = make_node(NodeKind::kIfStmt, kw);
  expect(TokenKind::kLParen, "if condition");
  AstNode* cond = parse_expression();
  expect(TokenKind::kRParen, "if condition");
  AstNode* then = parse_statement();
  if (accept(TokenKind::kKwElse)) {
    context_.set_children(node, {cond, then, parse_statement()});
  } else {
    context_.set_children(node, {cond, then});
  }
  return node;
}

AstNode* Parser::parse_for_stmt() {
  const Token& kw = expect(TokenKind::kKwFor, "for statement");
  AstNode* node = make_node(NodeKind::kForStmt, kw);
  expect(TokenKind::kLParen, "for header");
  const std::size_t scope = open_scope();  // the induction variable's scope

  // init: declaration, expression, or empty.
  AstNode* init = nullptr;
  if (at(TokenKind::kSemi)) {
    init = make_node(NodeKind::kNullStmt, peek());
    advance();
  } else if (at_type_specifier()) {
    init = parse_decl_stmt();  // consumes ';'
  } else {
    init = parse_expression();
    expect(TokenKind::kSemi, "for-init");
  }

  AstNode* cond = at(TokenKind::kSemi) ? make_node(NodeKind::kNullStmt, peek())
                                       : parse_expression();
  expect(TokenKind::kSemi, "for-condition");

  AstNode* inc = at(TokenKind::kRParen) ? make_node(NodeKind::kNullStmt, peek())
                                        : parse_expression();
  expect(TokenKind::kRParen, "for header");

  AstNode* body = parse_statement();

  // Paper's Figure 2 child order: [init, cond, body, inc].
  context_.set_children(node, {init, cond, body, inc});
  close_scope(scope);
  return node;
}

AstNode* Parser::parse_while_stmt() {
  const Token& kw = expect(TokenKind::kKwWhile, "while statement");
  AstNode* node = make_node(NodeKind::kWhileStmt, kw);
  expect(TokenKind::kLParen, "while condition");
  AstNode* cond = parse_expression();
  expect(TokenKind::kRParen, "while condition");
  context_.set_children(node, {cond, parse_statement()});
  return node;
}

AstNode* Parser::parse_do_stmt() {
  const Token& kw = expect(TokenKind::kKwDo, "do statement");
  AstNode* node = make_node(NodeKind::kDoStmt, kw);
  AstNode* body = parse_statement();
  expect(TokenKind::kKwWhile, "do-while");
  expect(TokenKind::kLParen, "do-while condition");
  AstNode* cond = parse_expression();
  expect(TokenKind::kRParen, "do-while condition");
  expect(TokenKind::kSemi, "do-while");
  context_.set_children(node, {body, cond});
  return node;
}

AstNode* Parser::parse_return_stmt() {
  const Token& kw = expect(TokenKind::kKwReturn, "return statement");
  AstNode* node = make_node(NodeKind::kReturnStmt, kw);
  if (!at(TokenKind::kSemi)) context_.set_children(node, {parse_expression()});
  expect(TokenKind::kSemi, "return statement");
  return node;
}

// ---------------------------------------------------------------------------
// OpenMP directives
// ---------------------------------------------------------------------------

AstNode* Parser::parse_omp_directive(const Token& pragma) {
  // Re-lex the pragma body; token offsets are shifted to the pragma's
  // position so NextToken ordering stays consistent with the whole buffer.
  // A body with line continuations is folded once into the context.
  std::string_view body = pragma.text;
  if (body.find("\\\n") != std::string_view::npos)
    body = context_.keep(fold_continuations(body));
  Diagnostics pragma_diags;
  pragma_tokens_ = Lexer(body, pragma_diags).tokenize_all();
  for (Token& tok : pragma_tokens_) {
    tok.location.offset += pragma.location.offset + 1;
    tok.location.line = pragma.location.line;
  }
  if (pragma_diags.has_errors())
    fail("malformed pragma: " + pragma_diags.summary());

  // Match the directive name sequence. Keywords inside pragmas (`for`)
  // arrive as keyword tokens carrying their spelling.
  auto text_at = [this](std::size_t i) -> std::string_view {
    if (i >= pragma_tokens_.size()) return {};
    const Token& t = pragma_tokens_[i];
    return (t.is(TokenKind::kIdentifier) || t.is_keyword()) ? t.text : std::string_view{};
  };

  if (text_at(0) != "omp") fail("unsupported pragma (only 'omp' is handled)");

  NodeKind directive_kind;
  std::size_t clause_start;
  if (text_at(1) == "parallel" && text_at(2) == "for") {
    directive_kind = NodeKind::kOmpParallelForDirective;
    clause_start = 3;
  } else if (text_at(1) == "target" && text_at(2) == "teams" &&
             text_at(3) == "distribute" && text_at(4) == "parallel" &&
             text_at(5) == "for") {
    directive_kind = NodeKind::kOmpTargetTeamsDistributeParallelForDirective;
    clause_start = 6;
  } else {
    fail("unsupported OpenMP directive: " + std::string(body));
  }

  AstNode* directive = context_.create(
      directive_kind, {pragma.location, pragma.location});

  // Parse clauses by switching the parser onto the pragma's token stream
  // (so clause expressions reuse the normal expression parser and resolve
  // against the current scopes). A parse error abandons the whole parse,
  // so only the success path switches back.
  const std::span<const Token> saved_tokens = tokens_;
  const std::size_t saved_pos = pos_;
  tokens_ = pragma_tokens_;
  pos_ = clause_start;
  const std::size_t children = open_children();
  while (!at(TokenKind::kEof)) scratch_.push_back(parse_omp_clause());
  tokens_ = saved_tokens;
  pos_ = saved_pos;

  // The associated statement must be a loop.
  AstNode* stmt = parse_statement();
  if (!stmt->is(NodeKind::kForStmt))
    fail("OpenMP loop directive must be followed by a for statement");
  scratch_.push_back(stmt);
  return close_children(directive, children);
}

AstNode* Parser::parse_omp_clause() {
  const Token name_tok = advance();
  const std::string_view name = name_tok.text;
  if (name.empty()) fail("expected an OpenMP clause name");

  auto clause_with_expr = [this, &name_tok](NodeKind kind) {
    AstNode* clause = make_node(kind, name_tok);
    expect(TokenKind::kLParen, "clause argument");
    context_.set_children(clause, {parse_assignment()});
    expect(TokenKind::kRParen, "clause argument");
    return clause;
  };
  // The variables of a list clause, from after its opening token through
  // the closing parenthesis.
  auto var_list = [this](AstNode* clause, std::string_view what) {
    const std::size_t children = open_children();
    do {
      scratch_.push_back(parse_omp_var_or_section());
    } while (accept(TokenKind::kComma));
    expect(TokenKind::kRParen, what);
    return close_children(clause, children);
  };
  auto clause_with_var_list = [&](NodeKind kind) {
    AstNode* clause = make_node(kind, name_tok);
    expect(TokenKind::kLParen, "clause variable list");
    return var_list(clause, "clause variable list");
  };

  if (name == "collapse") return clause_with_expr(NodeKind::kOmpCollapseClause);
  if (name == "num_threads") return clause_with_expr(NodeKind::kOmpNumThreadsClause);
  if (name == "num_teams") return clause_with_expr(NodeKind::kOmpNumTeamsClause);
  if (name == "thread_limit") return clause_with_expr(NodeKind::kOmpThreadLimitClause);
  if (name == "schedule") {
    AstNode* clause = make_node(NodeKind::kOmpScheduleClause, name_tok);
    expect(TokenKind::kLParen, "schedule clause");
    const Token& policy = advance();
    if (policy.text != "static" && policy.text != "dynamic" &&
        policy.text != "guided" && policy.text != "auto" &&
        policy.text != "runtime" && !policy.is(TokenKind::kKwStatic)) {
      fail("unknown schedule policy");
    }
    clause->set_text(policy.is(TokenKind::kKwStatic) ? "static" : policy.text);
    if (accept(TokenKind::kComma)) context_.set_children(clause, {parse_assignment()});
    expect(TokenKind::kRParen, "schedule clause");
    return clause;
  }
  if (name == "map") {
    expect(TokenKind::kLParen, "map clause");
    const Token& dir = advance();
    NodeKind kind;
    if (dir.text == "to") kind = NodeKind::kOmpMapToClause;
    else if (dir.text == "from") kind = NodeKind::kOmpMapFromClause;
    else if (dir.text == "tofrom") kind = NodeKind::kOmpMapTofromClause;
    else if (dir.text == "alloc") kind = NodeKind::kOmpMapAllocClause;
    else fail("unknown map direction '" + std::string(dir.text) + "'");
    AstNode* clause = make_node(kind, name_tok);
    expect(TokenKind::kColon, "map clause");
    return var_list(clause, "map clause");
  }
  if (name == "reduction") {
    AstNode* clause = make_node(NodeKind::kOmpReductionClause, name_tok);
    expect(TokenKind::kLParen, "reduction clause");
    const Token& op = advance();  // +, *, -, min, max, ...
    clause->set_text(op.text.empty() ? token_kind_name(op.kind) : op.text);
    if (clause->text().empty() || op.is(TokenKind::kPlus)) clause->set_text("+");
    if (op.is(TokenKind::kStar)) clause->set_text("*");
    if (op.is(TokenKind::kMinus)) clause->set_text("-");
    expect(TokenKind::kColon, "reduction clause");
    return var_list(clause, "reduction clause");
  }
  if (name == "private") return clause_with_var_list(NodeKind::kOmpPrivateClause);
  if (name == "shared") return clause_with_var_list(NodeKind::kOmpSharedClause);
  if (name == "firstprivate")
    return clause_with_var_list(NodeKind::kOmpFirstprivateClause);

  fail("unsupported OpenMP clause '" + std::string(name) + "'");
}

AstNode* Parser::parse_omp_var_or_section() {
  const Token& name = expect(TokenKind::kIdentifier, "clause variable");
  AstNode* ref = make_decl_ref(name);
  if (!at(TokenKind::kLBracket)) return ref;

  // Array section: A[lo:len] ([lo:len] repeated for multi-dim sections).
  AstNode* section = make_node(NodeKind::kOmpArraySection, name);
  const std::size_t children = open_children();
  scratch_.push_back(ref);
  while (accept(TokenKind::kLBracket)) {
    scratch_.push_back(parse_assignment());  // lower bound
    expect(TokenKind::kColon, "array section");
    scratch_.push_back(parse_assignment());  // length
    expect(TokenKind::kRBracket, "array section");
  }
  return close_children(section, children);
}

// ---------------------------------------------------------------------------
// Expressions
// ---------------------------------------------------------------------------

AstNode* Parser::parse_expression() {
  Levels chain(*this);
  AstNode* expr = parse_assignment();
  while (at(TokenKind::kComma)) {
    chain.open();
    const Token& comma = advance();
    AstNode* node = make_node(NodeKind::kBinaryOperator, comma);
    node->set_text(",");
    AstNode* rhs = parse_assignment();
    context_.set_children(node, {expr, rhs});
    node->set_type(rhs->type());
    expr = node;
  }
  return expr;
}

AstNode* Parser::parse_assignment() {
  AstNode* lhs = parse_conditional();
  const TokenKind kind = peek().kind;
  if (kind != TokenKind::kEqual && !is_compound_assign(kind)) return lhs;
  Levels level(*this);
  level.open();
  const Token& op = advance();
  AstNode* node = make_node(kind == TokenKind::kEqual ? NodeKind::kBinaryOperator
                                                      : NodeKind::kCompoundAssignOperator,
                            op);
  node->set_text(operator_spelling(kind));
  context_.set_children(node, {lhs, parse_assignment()});
  node->set_type(lhs->type());
  return node;
}

AstNode* Parser::parse_conditional() {
  AstNode* cond = parse_binary(1);
  if (!at(TokenKind::kQuestion)) return cond;
  Levels level(*this);
  level.open();
  const Token& question = advance();
  AstNode* node = make_node(NodeKind::kConditionalOperator, question);
  AstNode* if_true = parse_assignment();
  expect(TokenKind::kColon, "conditional expression");
  AstNode* if_false = parse_conditional();
  context_.set_children(node, {cond, if_true, if_false});
  node->set_type(binary_result_type(if_true->type(), if_false->type()));
  return node;
}

AstNode* Parser::parse_binary(int min_precedence) {
  Levels chain(*this);
  AstNode* lhs = parse_unary();
  for (;;) {
    const int prec = binary_precedence(peek().kind);
    if (prec < min_precedence) return lhs;
    chain.open();
    const Token& op = advance();
    AstNode* rhs = parse_binary(prec + 1);
    AstNode* node = make_node(NodeKind::kBinaryOperator, op);
    node->set_text(operator_spelling(op.kind));
    context_.set_children(node, {lhs, rhs});
    node->set_type(binary_type(op.kind, lhs->type(), rhs->type()));
    lhs = node;
  }
}

AstNode* Parser::parse_unary() {
  switch (peek().kind) {
    case TokenKind::kPlus:
    case TokenKind::kMinus:
    case TokenKind::kExclaim:
    case TokenKind::kTilde:
    case TokenKind::kStar:
    case TokenKind::kAmp: {
      Levels level(*this);
      level.open();
      const Token& op = advance();
      AstNode* node = make_node(NodeKind::kUnaryOperator, op);
      node->set_text(operator_spelling(op.kind));
      AstNode* operand = parse_unary();
      context_.set_children(node, {operand});
      QualType t = operand->type();
      if (op.kind == TokenKind::kStar && t.pointer_depth > 0) --t.pointer_depth;
      if (op.kind == TokenKind::kAmp) ++t.pointer_depth;
      node->set_type(t);
      return node;
    }
    case TokenKind::kPlusPlus:
    case TokenKind::kMinusMinus: {
      Levels level(*this);
      level.open();
      const Token& op = advance();
      AstNode* node = make_node(NodeKind::kUnaryOperator, op);
      node->set_text(op.is(TokenKind::kPlusPlus) ? "++pre" : "--pre");
      AstNode* operand = parse_unary();
      context_.set_children(node, {operand});
      node->set_type(operand->type());
      return node;
    }
    case TokenKind::kKwSizeof: {
      Levels level(*this);
      level.open();
      const Token& op = advance();
      AstNode* node = make_node(NodeKind::kUnaryOperator, op);
      node->set_text("sizeof");
      expect(TokenKind::kLParen, "sizeof");
      AstNode* operand = nullptr;
      if (at_type_specifier()) {
        const QualType type = parse_type_specifier();
        operand = make_node(NodeKind::kIntegerLiteral, op);
        operand->set_int_value(static_cast<std::int64_t>(type.element_size()));
        operand->set_type(scalar(BaseType::kULong));
      } else {
        operand = parse_expression();
      }
      expect(TokenKind::kRParen, "sizeof");
      context_.set_children(node, {operand});
      node->set_type(scalar(BaseType::kULong));
      return node;
    }
    default:
      return parse_postfix();
  }
}

AstNode* Parser::parse_postfix() {
  Levels chain(*this);
  AstNode* expr = parse_primary();
  for (;;) {
    if (at(TokenKind::kLBracket)) {
      chain.open();
      const Token& bracket = advance();
      AstNode* node = make_node(NodeKind::kArraySubscriptExpr, bracket);
      AstNode* index = parse_expression();
      expect(TokenKind::kRBracket, "array subscript");
      context_.set_children(node, {expr, index});
      QualType t = expr->type();
      if (!t.array_extents.empty()) t.array_extents.pop_front();
      else if (t.pointer_depth > 0) --t.pointer_depth;
      node->set_type(t);
      expr = node;
    } else if (at(TokenKind::kLParen) && expr->is(NodeKind::kDeclRefExpr)) {
      chain.open();
      const Token& paren = advance();
      AstNode* node = make_node(NodeKind::kCallExpr, paren);
      const std::size_t children = open_children();
      scratch_.push_back(expr);
      if (!at(TokenKind::kRParen)) {
        do {
          scratch_.push_back(parse_assignment());
        } while (accept(TokenKind::kComma));
      }
      expect(TokenKind::kRParen, "call expression");
      close_children(node, children);
      if (const AstNode* callee = expr->referenced_decl(); callee != nullptr) {
        node->set_type(callee->type());
      } else {
        // Unknown functions (math builtins) are assumed to return double.
        node->set_type(scalar(BaseType::kDouble));
      }
      expr = node;
    } else if (at(TokenKind::kPlusPlus) || at(TokenKind::kMinusMinus)) {
      chain.open();
      const Token& op = advance();
      AstNode* node = make_node(NodeKind::kUnaryOperator, op);
      node->set_text(op.is(TokenKind::kPlusPlus) ? "++post" : "--post");
      context_.set_children(node, {expr});
      node->set_type(expr->type());
      expr = node;
    } else {
      return expr;
    }
  }
}

AstNode* Parser::parse_primary() {
  switch (peek().kind) {
    case TokenKind::kIntegerLiteral: {
      const Token& tok = advance();
      AstNode* node = make_node(NodeKind::kIntegerLiteral, tok);
      node->set_text(tok.text);
      node->set_int_value(with_c_string(
          tok.text, [](const char* s) { return std::strtoll(s, nullptr, 0); }));
      node->set_type(scalar(BaseType::kInt));
      return node;
    }
    case TokenKind::kFloatingLiteral: {
      const Token& tok = advance();
      AstNode* node = make_node(NodeKind::kFloatingLiteral, tok);
      node->set_text(tok.text);
      node->set_float_value(with_c_string(
          tok.text, [](const char* s) { return std::strtod(s, nullptr); }));
      node->set_type(scalar(BaseType::kDouble));
      return node;
    }
    case TokenKind::kCharLiteral: {
      const Token& tok = advance();
      AstNode* node = make_node(NodeKind::kCharacterLiteral, tok);
      node->set_text(tok.text);
      node->set_int_value(tok.text.empty() ? 0 : tok.text[0]);
      node->set_type(scalar(BaseType::kChar));
      return node;
    }
    case TokenKind::kStringLiteral: {
      const Token& tok = advance();
      AstNode* node = make_node(NodeKind::kStringLiteral, tok);
      node->set_text(tok.text);
      node->set_type({BaseType::kChar, 1, {}, true});
      return node;
    }
    case TokenKind::kIdentifier: {
      AstNode* node = make_decl_ref(advance());
      // Unresolved: math builtin or library symbol; treated as double().
      if (node->referenced_decl() == nullptr) node->set_type(scalar(BaseType::kDouble));
      return node;
    }
    case TokenKind::kLParen: {
      Levels level(*this);
      level.open();
      // Cast expression (type) expr, or parenthesised expression.
      switch (peek(1).kind) {
        case TokenKind::kKwInt:
        case TokenKind::kKwLong:
        case TokenKind::kKwFloat:
        case TokenKind::kKwDouble:
        case TokenKind::kKwChar:
        case TokenKind::kKwUnsigned:
        case TokenKind::kKwVoid:
        case TokenKind::kKwConst: {
          const Token& paren = advance();
          const QualType type = parse_type_specifier();
          expect(TokenKind::kRParen, "cast expression");
          AstNode* node = make_node(NodeKind::kImplicitCastExpr, paren);
          node->set_text("CStyleCast");
          context_.set_children(node, {parse_unary()});
          node->set_type(type);
          return node;
        }
        default: break;
      }
      const Token& paren = advance();
      AstNode* node = make_node(NodeKind::kParenExpr, paren);
      AstNode* inner = parse_expression();
      expect(TokenKind::kRParen, "parenthesised expression");
      context_.set_children(node, {inner});
      node->set_type(inner->type());
      return node;
    }
    default:
      fail(std::string("unexpected token ") +
           std::string(token_kind_name(peek().kind)) + " in expression");
  }
}

// ---------------------------------------------------------------------------
// Implicit cast insertion
// ---------------------------------------------------------------------------

bool is_assignment_node(const AstNode* node) {
  return (node->is(NodeKind::kBinaryOperator) && node->text() == "=") ||
         node->is(NodeKind::kCompoundAssignOperator);
}

/// Should child `i` of `parent` be treated as an lvalue (no rvalue wrap)?
bool is_lvalue_position(const AstNode* parent, std::size_t i) {
  if (parent == nullptr) return false;
  if (is_assignment_node(parent) && i == 0) return true;
  if (parent->is(NodeKind::kUnaryOperator)) {
    const std::string_view op = parent->text();
    if (op == "&" || op == "++pre" || op == "--pre" || op == "++post" ||
        op == "--post")
      return true;
  }
  if (parent->is(NodeKind::kCallExpr) && i == 0) return true;  // callee
  if (parent->is(NodeKind::kArraySubscriptExpr) && i == 0) return true;  // base decays
  if (parent->is_omp_clause() || parent->is(NodeKind::kOmpArraySection))
    return true;  // clause operands name variables, they don't read them
  return false;
}

/// Wraps DeclRefExpr nodes that are read as rvalues in ImplicitCastExpr
/// (LValueToRValue). Skips assignment LHS, ++/-- and unary-& operands,
/// callees, subscript bases and clause operands. Recursion depth is the
/// tree depth, which the nesting limit bounds.
void insert_implicit_casts(AstContext& ctx, AstNode* node) {
  for (std::size_t i = 0; i < node->num_children(); ++i) {
    AstNode* child = node->child(i);
    insert_implicit_casts(ctx, child);
    const bool readable_ref =
        child->is(NodeKind::kDeclRefExpr) && child->referenced_decl() != nullptr &&
        !child->referenced_decl()->is(NodeKind::kFunctionDecl) &&
        !child->type().is_array();
    if (readable_ref && !is_lvalue_position(node, i)) {
      AstNode* cast = ctx.create(NodeKind::kImplicitCastExpr, child->range());
      cast->set_text("LValueToRValue");
      cast->set_type(child->type());
      ctx.set_children(cast, {child});
      node->set_child(i, cast);
    }
  }
}

}  // namespace

ParseResult parse_source(std::string_view source) {
  ParseResult result;
  result.context = std::make_unique<AstContext>(source);
  const std::vector<Token> tokens =
      Lexer(result.context->source(), result.diagnostics).tokenize_all();
  if (result.diagnostics.has_errors()) return result;

  Parser parser(tokens, *result.context, result.diagnostics);
  AstNode* root = parser.parse_translation_unit();
  if (root != nullptr && !result.diagnostics.has_errors()) {
    insert_implicit_casts(*result.context, root);
    result.context->set_root(root);
  }
  return result;
}

}  // namespace pg::frontend
