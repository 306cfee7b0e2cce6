// Lexer for the C subset used by the benchmark kernels.
//
// Differences from a full C lexer, all deliberate:
//  * `#pragma ...` lines become a single kPragma token (body = rest of line,
//    backslash line-continuations left in place for the parser to fold), so
//    the parser can attach OpenMP directives to the following statement.
//  * `#include`/`#define`/other preprocessor lines are skipped — kernel
//    sources are already fully instantiated by the variant generator.
//  * No trigraphs, wide literals, or universal character names.
//
// Tokens do not copy their spelling: each text is a view into the source.
#pragma once

#include <string_view>
#include <vector>

#include "frontend/diagnostics.hpp"
#include "frontend/token.hpp"

namespace pg::frontend {

class Lexer {
 public:
  /// `source` must outlive the lexer and every token it returns.
  /// Diagnostics accumulate in `diags`.
  Lexer(std::string_view source, Diagnostics& diags);

  /// Lexes the next token (kEof forever once exhausted).
  Token next();

  /// Lexes the whole buffer. The returned vector always ends with kEof.
  std::vector<Token> tokenize_all();

 private:
  [[nodiscard]] bool at_end() const { return pos_ >= source_.size(); }
  [[nodiscard]] char peek(std::size_t ahead = 0) const;
  char advance();
  /// Advances over `count` bytes that hold no newline.
  void skip_in_line(std::size_t count);
  bool match(char expected);
  void skip_trivia();  // whitespace + comments
  [[nodiscard]] SourceLocation location() const;
  [[nodiscard]] std::string_view text_from(SourceLocation start) const {
    return source_.substr(start.offset, pos_ - start.offset);
  }

  Token lex_identifier_or_keyword(SourceLocation start);
  Token lex_number(SourceLocation start);
  Token lex_quoted(TokenKind kind, char quote, SourceLocation start);
  /// A `#pragma` line yields a token; any other directive line is skipped.
  bool lex_preprocessor_line(SourceLocation start, Token& token);
  /// Returns false (after a diagnostic) on a character no token starts with.
  bool lex_punctuation(SourceLocation start, Token& token);

  std::string_view source_;
  Diagnostics& diags_;
  std::size_t pos_ = 0;
  std::uint32_t line_ = 1;
  std::uint32_t column_ = 1;
};

}  // namespace pg::frontend
