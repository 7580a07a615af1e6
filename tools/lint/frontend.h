#ifndef CLOUDDB_TOOLS_LINT_FRONTEND_H_
#define CLOUDDB_TOOLS_LINT_FRONTEND_H_

#include <filesystem>
#include <map>
#include <set>
#include <string>
#include <vector>

namespace clouddb::lint {

/// Lightweight C++ front-end shared by every lint pass. It is deliberately
/// not a real parser: comments/strings are blanked (positions preserved), the
/// result is tokenized, and brace/paren matching segments the token stream
/// into class bodies, function bodies, and lambda expressions. That is enough
/// structure for flow-aware rules (capture lifetimes, include hygiene) while
/// staying dependency-free and byte-deterministic.

struct Token {
  std::string text;
  int line = 0;
  bool ident = false;
};

struct Include {
  int line = 0;
  std::string path;  // the quoted include path, verbatim
};

/// One loaded source file: raw + stripped text, tokens, includes, and NOLINT
/// markers.
struct SourceFile {
  std::string rel;  // '/'-separated path relative to the scan root
  std::vector<std::string> raw_lines;
  std::vector<std::string> stripped_lines;
  std::vector<Token> tokens;
  std::vector<Include> includes;
  // line -> suppressed rule names ("*" = all). NOLINTNEXTLINE is folded in.
  std::map<int, std::set<std::string>> nolint;
  bool is_header = false;
};

/// A lambda expression found inside a function body, with its parsed capture
/// list and the innermost enclosing call it is an argument of (empty callee
/// when the lambda is not a call argument, e.g. assigned to a variable).
struct LambdaExpr {
  int line = 0;        // line of the '[' introducer
  size_t intro = 0;    // token index of '['
  bool captures_this = false;    // [this]
  bool ref_default = false;      // [&]  (captures *this by reference too)
  bool copy_default = false;     // [=]  (still captures this in C++20)
  std::vector<std::string> by_ref;   // [&name]
  std::vector<std::string> by_copy;  // [name] / [name = init]
  std::string callee;    // e.g. "ScheduleAfter" for sim_->ScheduleAfter(...)
  std::string receiver;  // e.g. "sim_"; "?" when present but unresolvable
};

/// A function definition (body found). `cls` is the qualifying class for
/// `X::f` definitions or the enclosing class for inline methods; empty for
/// free functions.
struct FunctionDef {
  std::string cls;
  std::string name;
  bool is_dtor = false;
  int line = 0;
  size_t body_begin = 0;  // token index of '{'
  size_t body_end = 0;    // token index of matching '}'
  std::vector<LambdaExpr> lambdas;
};

/// A class/struct definition with the member facts the rules need.
struct ClassDef {
  std::string name;
  int line = 0;
  size_t body_begin = 0;
  size_t body_end = 0;
  std::set<std::string> members;        // member-variable names (best effort)
  std::set<std::string> timer_members;  // members of sim::Timer/PeriodicTimer type
  std::set<std::string> method_names;   // declared or defined member functions
};

/// Per-file structural index built on top of SourceFile.
struct FileIndex {
  std::vector<ClassDef> classes;
  std::vector<FunctionDef> functions;
  /// Names this file *owns* when it is a header: namespace-scope classes,
  /// structs, enums, free functions, `using` aliases, constexpr constants,
  /// and macros. The include-hygiene pass treats these as the header's API.
  std::set<std::string> strong_exports;
  /// Everything else declared here (member names, methods, enumerators):
  /// evidence that an includer uses the header, but not unique ownership.
  std::set<std::string> weak_exports;
  /// Header declares namespace-scope operator overloads or explicit template
  /// specializations; such headers are never flagged as unused includes
  /// (their use sites carry no referencable identifier).
  bool exports_operators = false;
  /// token index -> matching bracket token index for ( ) { } [ ].
  std::vector<int> match;
};

/// Replaces the contents of comments and string/char literals with spaces,
/// preserving line breaks and column positions, so token rules never fire on
/// prose or literals. Exposed for unit tests.
std::string StripCommentsAndStrings(const std::string& source);

/// Tokenizes stripped source lines (identifiers, numbers, `::`/`->`, and
/// single-character punctuation).
std::vector<Token> Tokenize(const std::vector<std::string>& stripped_lines);

/// Loads and pre-processes one file (raw/stripped lines, tokens, includes,
/// NOLINT markers).
SourceFile LoadSourceFile(const std::filesystem::path& path,
                          const std::string& rel);

/// Builds a SourceFile from in-memory text — same pipeline as
/// LoadSourceFile minus the disk read. Used by unit tests and benches.
SourceFile ParseSource(const std::string& text, const std::string& rel,
                       bool is_header = false);

/// Builds the structural index: classes, functions, lambdas, exports.
FileIndex BuildIndex(const SourceFile& file);

bool IsIdentChar(char c);
bool IsKeyword(std::string_view s);

}  // namespace clouddb::lint

#endif  // CLOUDDB_TOOLS_LINT_FRONTEND_H_
