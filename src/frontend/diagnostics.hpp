// Error reporting for the frontend. Unlike library-internal invariants
// (support/check.hpp), these describe problems in the *input program*.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "frontend/source_location.hpp"

namespace pg::frontend {

struct Diagnostic {
  SourceLocation location;
  std::string message;

  [[nodiscard]] std::string to_string() const {
    return location.to_string() + ": error: " + message;
  }
};

/// Accumulates diagnostics produced while lexing/parsing one buffer. The
/// first kMaxErrors are kept, then one final "too many errors" entry, so a
/// long run of bad input cannot grow the list (or a caller's log) unbounded.
class Diagnostics {
 public:
  static constexpr std::size_t kMaxErrors = 100;

  void error(SourceLocation loc, std::string message) {
    if (entries_.size() < kMaxErrors)
      entries_.push_back({loc, std::move(message)});
    else if (entries_.size() == kMaxErrors)
      entries_.push_back({loc, "too many errors; stopped reporting them"});
  }

  [[nodiscard]] bool has_errors() const { return !entries_.empty(); }
  [[nodiscard]] const std::vector<Diagnostic>& entries() const { return entries_; }

  /// All diagnostics joined with newlines (for test assertions / logs).
  [[nodiscard]] std::string summary() const {
    std::string out;
    for (const auto& d : entries_) {
      if (!out.empty()) out += '\n';
      out += d.to_string();
    }
    return out;
  }

 private:
  std::vector<Diagnostic> entries_;
};

}  // namespace pg::frontend
