// Hand-rolled lexer: keywords, literals, operators, and pragma lines.
#include "frontend/lexer.hpp"

#include <string>

namespace pg::frontend {
namespace {

// ASCII classes; bytes >= 0x80 belong to none of them, whatever the locale.
bool is_alpha(char c) { return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z'); }
bool is_digit(char c) { return c >= '0' && c <= '9'; }
bool is_xdigit(char c) { return is_digit(c) || (c >= 'a' && c <= 'f') || (c >= 'A' && c <= 'F'); }
bool is_ident_start(char c) { return is_alpha(c) || c == '_'; }
bool is_ident_char(char c) { return is_alpha(c) || is_digit(c) || c == '_'; }

/// The keyword spelled by `word`, or kIdentifier.
TokenKind keyword_kind(std::string_view word) {
  const auto is = [word](std::string_view kw) { return word == kw; };
  switch (word.size()) {
    case 2:
      if (is("if")) return TokenKind::kKwIf;
      if (is("do")) return TokenKind::kKwDo;
      break;
    case 3:
      if (is("int")) return TokenKind::kKwInt;
      if (is("for")) return TokenKind::kKwFor;
      break;
    case 4:
      switch (word[0]) {
        case 'l': if (is("long")) return TokenKind::kKwLong; break;
        case 'c': if (is("char")) return TokenKind::kKwChar; break;
        case 'v': if (is("void")) return TokenKind::kKwVoid; break;
        case 'e': if (is("else")) return TokenKind::kKwElse; break;
        default: break;
      }
      break;
    case 5:
      switch (word[0]) {
        case 'f': if (is("float")) return TokenKind::kKwFloat; break;
        case 'c': if (is("const")) return TokenKind::kKwConst; break;
        case 'w': if (is("while")) return TokenKind::kKwWhile; break;
        case 'b': if (is("break")) return TokenKind::kKwBreak; break;
        default: break;
      }
      break;
    case 6:
      switch (word[0]) {
        case 'd': if (is("double")) return TokenKind::kKwDouble; break;
        case 'r': if (is("return")) return TokenKind::kKwReturn; break;
        case 's':
          if (is("static")) return TokenKind::kKwStatic;
          if (is("sizeof")) return TokenKind::kKwSizeof;
          if (is("struct")) return TokenKind::kKwStruct;
          break;
        default: break;
      }
      break;
    case 8:
      if (is("unsigned")) return TokenKind::kKwUnsigned;
      if (is("continue")) return TokenKind::kKwContinue;
      break;
    default: break;
  }
  return TokenKind::kIdentifier;
}

}  // namespace

Lexer::Lexer(std::string_view source, Diagnostics& diags)
    : source_(source), diags_(diags) {}

char Lexer::peek(std::size_t ahead) const {
  return pos_ + ahead < source_.size() ? source_[pos_ + ahead] : '\0';
}

char Lexer::advance() {
  const char c = source_[pos_++];
  if (c == '\n') {
    ++line_;
    column_ = 1;
  } else {
    ++column_;
  }
  return c;
}

void Lexer::skip_in_line(std::size_t count) {
  pos_ += count;
  column_ += static_cast<std::uint32_t>(count);
}

bool Lexer::match(char expected) {
  if (at_end() || peek() != expected) return false;
  advance();
  return true;
}

SourceLocation Lexer::location() const {
  return {static_cast<std::uint32_t>(pos_), line_, column_};
}

void Lexer::skip_trivia() {
  while (!at_end()) {
    const char c = peek();
    if (c == ' ' || c == '\t' || c == '\r' || c == '\n') {
      advance();
    } else if (c == '/' && peek(1) == '/') {
      while (!at_end() && peek() != '\n') advance();
    } else if (c == '/' && peek(1) == '*') {
      const SourceLocation start = location();
      advance();
      advance();
      bool closed = false;
      while (!at_end()) {
        if (peek() == '*' && peek(1) == '/') {
          advance();
          advance();
          closed = true;
          break;
        }
        advance();
      }
      if (!closed) diags_.error(start, "unterminated block comment");
    } else {
      break;
    }
  }
}

Token Lexer::next() {
  // A loop, not recursion, over skipped directive lines and stray
  // characters: a long run of either must not deepen the stack.
  for (;;) {
    skip_trivia();
    if (at_end()) return {TokenKind::kEof, {}, location()};

    const SourceLocation start = location();
    const char c = peek();
    if (is_ident_start(c)) return lex_identifier_or_keyword(start);
    if (is_digit(c) || (c == '.' && is_digit(peek(1)))) return lex_number(start);
    if (c == '\'') return lex_quoted(TokenKind::kCharLiteral, '\'', start);
    if (c == '"') return lex_quoted(TokenKind::kStringLiteral, '"', start);
    Token token;
    if (c == '#' ? lex_preprocessor_line(start, token) : lex_punctuation(start, token))
      return token;
  }
}

std::vector<Token> Lexer::tokenize_all() {
  std::vector<Token> tokens;
  // Kernel sources run about one token per four bytes; one reservation
  // usually holds them all.
  tokens.reserve((source_.size() - pos_) / 3 + 2);
  for (;;) {
    tokens.push_back(next());
    if (tokens.back().is(TokenKind::kEof)) break;
  }
  return tokens;
}

Token Lexer::lex_identifier_or_keyword(SourceLocation start) {
  std::size_t n = 0;
  while (pos_ + n < source_.size() && is_ident_char(source_[pos_ + n])) ++n;
  skip_in_line(n);
  const std::string_view text = text_from(start);
  return {keyword_kind(text), text, start};
}

Token Lexer::lex_number(SourceLocation start) {
  bool is_float = false;
  if (peek() == '0' && (peek(1) == 'x' || peek(1) == 'X')) {
    skip_in_line(2);
    while (!at_end() && is_xdigit(peek())) skip_in_line(1);
  } else {
    while (!at_end() && is_digit(peek())) skip_in_line(1);
    if (!at_end() && peek() == '.') {
      is_float = true;
      skip_in_line(1);
      while (!at_end() && is_digit(peek())) skip_in_line(1);
    }
    if (!at_end() && (peek() == 'e' || peek() == 'E')) {
      is_float = true;
      skip_in_line(1);
      if (!at_end() && (peek() == '+' || peek() == '-')) skip_in_line(1);
      if (at_end() || !is_digit(peek())) {
        diags_.error(start, "malformed exponent in numeric literal");
      }
      while (!at_end() && is_digit(peek())) skip_in_line(1);
    }
  }
  const std::string_view text = text_from(start);
  // Suffixes: f/F force float; u/U/l/L are consumed but not recorded.
  while (!at_end() && (peek() == 'f' || peek() == 'F' || peek() == 'l' ||
                       peek() == 'L' || peek() == 'u' || peek() == 'U')) {
    if (peek() == 'f' || peek() == 'F') is_float = true;
    skip_in_line(1);
  }
  return {is_float ? TokenKind::kFloatingLiteral : TokenKind::kIntegerLiteral, text,
          start};
}

Token Lexer::lex_quoted(TokenKind kind, char quote, SourceLocation start) {
  advance();  // opening quote
  const std::size_t first = pos_;
  while (!at_end() && peek() != quote) {
    if (peek() == '\\') advance();
    if (!at_end()) advance();
  }
  const std::string_view text = source_.substr(first, pos_ - first);
  if (at_end()) {
    diags_.error(start, kind == TokenKind::kCharLiteral ? "unterminated character literal"
                                                        : "unterminated string literal");
  } else {
    advance();  // closing quote
  }
  return {kind, text, start};
}

bool Lexer::lex_preprocessor_line(SourceLocation start, Token& token) {
  advance();  // '#'
  // Read the directive name.
  while (!at_end() && (peek() == ' ' || peek() == '\t')) advance();
  const std::size_t name_begin = pos_;
  while (!at_end() && is_ident_char(peek())) advance();
  const bool is_pragma = source_.substr(name_begin, pos_ - name_begin) == "pragma";

  // The body starts after the blanks (and continuations) that follow the
  // name and runs to the end of the possibly continued line.
  auto at_continuation = [this] { return peek() == '\\' && peek(1) == '\n'; };
  while (!at_end() && (peek() == ' ' || peek() == '\t' || at_continuation())) {
    if (at_continuation()) advance();
    advance();
  }
  const std::size_t body_begin = pos_;
  while (!at_end() && peek() != '\n') {
    if (at_continuation()) advance();
    advance();
  }
  if (!is_pragma) return false;  // #include, #define, ...: already instantiated
  token = {TokenKind::kPragma, source_.substr(body_begin, pos_ - body_begin), start};
  return true;
}

bool Lexer::lex_punctuation(SourceLocation start, Token& token) {
  auto make = [&token, start](TokenKind kind) {
    token = {kind, {}, start};
    return true;
  };
  const char c = advance();
  switch (c) {
    case '(': return make(TokenKind::kLParen);
    case ')': return make(TokenKind::kRParen);
    case '{': return make(TokenKind::kLBrace);
    case '}': return make(TokenKind::kRBrace);
    case '[': return make(TokenKind::kLBracket);
    case ']': return make(TokenKind::kRBracket);
    case ';': return make(TokenKind::kSemi);
    case ',': return make(TokenKind::kComma);
    case '?': return make(TokenKind::kQuestion);
    case ':': return make(TokenKind::kColon);
    case '~': return make(TokenKind::kTilde);
    case '+':
      if (match('+')) return make(TokenKind::kPlusPlus);
      if (match('=')) return make(TokenKind::kPlusEqual);
      return make(TokenKind::kPlus);
    case '-':
      if (match('-')) return make(TokenKind::kMinusMinus);
      if (match('=')) return make(TokenKind::kMinusEqual);
      if (match('>')) return make(TokenKind::kArrow);
      return make(TokenKind::kMinus);
    case '*':
      if (match('=')) return make(TokenKind::kStarEqual);
      return make(TokenKind::kStar);
    case '/':
      if (match('=')) return make(TokenKind::kSlashEqual);
      return make(TokenKind::kSlash);
    case '%':
      if (match('=')) return make(TokenKind::kPercentEqual);
      return make(TokenKind::kPercent);
    case '&':
      if (match('&')) return make(TokenKind::kAmpAmp);
      return make(TokenKind::kAmp);
    case '|':
      if (match('|')) return make(TokenKind::kPipePipe);
      return make(TokenKind::kPipe);
    case '^': return make(TokenKind::kCaret);
    case '!':
      if (match('=')) return make(TokenKind::kExclaimEqual);
      return make(TokenKind::kExclaim);
    case '<':
      if (match('=')) return make(TokenKind::kLessEqual);
      if (match('<')) return make(TokenKind::kLessLess);
      return make(TokenKind::kLess);
    case '>':
      if (match('=')) return make(TokenKind::kGreaterEqual);
      if (match('>')) return make(TokenKind::kGreaterGreater);
      return make(TokenKind::kGreater);
    case '=':
      if (match('=')) return make(TokenKind::kEqualEqual);
      return make(TokenKind::kEqual);
    case '.': return make(TokenKind::kPeriod);
    default:
      diags_.error(start, std::string("unexpected character '") + c + "'");
      return false;
  }
}

}  // namespace pg::frontend
