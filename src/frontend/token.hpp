// Token model for the C-subset lexer.
#pragma once

#include <cstdint>
#include <string_view>

#include "frontend/source_location.hpp"

namespace pg::frontend {

enum class TokenKind : std::uint8_t {
  kEof,
  kIdentifier,
  kIntegerLiteral,
  kFloatingLiteral,
  kCharLiteral,
  kStringLiteral,
  // A whole `#pragma ...` line; text holds everything after `#pragma` and
  // the blanks that follow it, backslash-newline continuations included
  // (the parser folds each into one space).
  kPragma,
  // Keywords.
  kKwInt, kKwLong, kKwFloat, kKwDouble, kKwChar, kKwVoid, kKwUnsigned,
  kKwConst, kKwStatic, kKwIf, kKwElse, kKwFor, kKwWhile, kKwDo, kKwReturn,
  kKwBreak, kKwContinue, kKwSizeof, kKwStruct,
  // Punctuation and operators.
  kLParen, kRParen, kLBrace, kRBrace, kLBracket, kRBracket,
  kSemi, kComma, kQuestion, kColon,
  kPlus, kMinus, kStar, kSlash, kPercent,
  kAmp, kPipe, kCaret, kTilde, kExclaim,
  kLess, kGreater, kLessEqual, kGreaterEqual, kEqualEqual, kExclaimEqual,
  kAmpAmp, kPipePipe, kLessLess, kGreaterGreater,
  kEqual, kPlusEqual, kMinusEqual, kStarEqual, kSlashEqual, kPercentEqual,
  kPlusPlus, kMinusMinus,
  kArrow, kPeriod,
};

/// Spelling of a token kind, for diagnostics ("'{'", "identifier", ...).
std::string_view token_kind_name(TokenKind kind);

/// A token is a view into the lexed buffer, which must outlive it.
struct Token {
  TokenKind kind = TokenKind::kEof;
  // Identifier or keyword spelling, literal spelling (without quotes or
  // numeric suffix) or pragma body; empty for punctuation and end of input.
  std::string_view text;
  SourceLocation location;

  [[nodiscard]] bool is(TokenKind k) const { return kind == k; }
  [[nodiscard]] bool is_keyword() const {
    return kind >= TokenKind::kKwInt && kind <= TokenKind::kKwStruct;
  }
};

}  // namespace pg::frontend
