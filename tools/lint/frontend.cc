#include "frontend.h"

#include <algorithm>
#include <cctype>
#include <fstream>
#include <sstream>
#include <string_view>

namespace clouddb::lint {
namespace {

std::vector<std::string> SplitLines(const std::string& text) {
  std::vector<std::string> lines;
  std::string cur;
  for (char c : text) {
    if (c == '\n') {
      lines.push_back(cur);
      cur.clear();
    } else {
      cur += c;
    }
  }
  if (!cur.empty()) lines.push_back(cur);
  return lines;
}

/// Parses NOLINT / NOLINT(rule, ...) / NOLINTNEXTLINE(...) markers from a raw
/// source line into `out[target_line]`.
void ParseNolint(const std::string& raw, int line,
                 std::map<int, std::set<std::string>>* out) {
  size_t pos = 0;
  while ((pos = raw.find("NOLINT", pos)) != std::string::npos) {
    size_t after = pos + 6;
    int target = line;
    if (raw.compare(pos, 14, "NOLINTNEXTLINE") == 0) {
      after = pos + 14;
      target = line + 1;
    }
    std::set<std::string>& rules = (*out)[target];
    size_t p = after;
    while (p < raw.size() && raw[p] == ' ') ++p;
    if (p < raw.size() && raw[p] == '(') {
      size_t close = raw.find(')', p);
      std::string list = raw.substr(
          p + 1, close == std::string::npos ? std::string::npos : close - p - 1);
      std::string name;
      std::set<std::string> named;
      std::istringstream ss(list);
      while (std::getline(ss, name, ',')) {
        name.erase(0, name.find_first_not_of(" \t"));
        name.erase(name.find_last_not_of(" \t") + 1);
        if (!name.empty()) named.insert(name);
      }
      rules.insert(named.begin(), named.end());
      if (named.empty()) rules.insert("*");
    } else {
      rules.insert("*");  // bare NOLINT silences every rule on the line
    }
    pos = after;
  }
}

void ParseIncludes(SourceFile* f) {
  for (size_t li = 0; li < f->raw_lines.size(); ++li) {
    const std::string& raw = f->raw_lines[li];
    size_t p = raw.find_first_not_of(" \t");
    if (p == std::string::npos || raw[p] != '#') continue;
    ++p;
    while (p < raw.size() && (raw[p] == ' ' || raw[p] == '\t')) ++p;
    if (raw.compare(p, 7, "include") != 0) continue;
    p += 7;
    while (p < raw.size() && (raw[p] == ' ' || raw[p] == '\t')) ++p;
    if (p >= raw.size() || raw[p] != '"') continue;
    size_t close = raw.find('"', p + 1);
    if (close == std::string::npos) continue;
    f->includes.push_back(
        {static_cast<int>(li) + 1, raw.substr(p + 1, close - p - 1)});
  }
}

std::string ReadFileText(const std::filesystem::path& p) {
  std::ifstream in(p, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

// ---------------------------------------------------------------------------
// Bracket matching.
// ---------------------------------------------------------------------------

/// Fills `match[i]` with the index of the bracket matching token i (for
/// single-character ()/{}/[] tokens), or -1. Unbalanced brackets are left
/// unmatched rather than guessed at.
std::vector<int> MatchBrackets(const std::vector<Token>& t) {
  std::vector<int> match(t.size(), -1);
  std::vector<size_t> parens, braces, squares;
  for (size_t i = 0; i < t.size(); ++i) {
    if (t[i].text.size() != 1) continue;
    char c = t[i].text[0];
    switch (c) {
      case '(': parens.push_back(i); break;
      case '{': braces.push_back(i); break;
      case '[': squares.push_back(i); break;
      case ')':
        if (!parens.empty()) {
          match[i] = static_cast<int>(parens.back());
          match[parens.back()] = static_cast<int>(i);
          parens.pop_back();
        }
        break;
      case '}':
        if (!braces.empty()) {
          match[i] = static_cast<int>(braces.back());
          match[braces.back()] = static_cast<int>(i);
          braces.pop_back();
        }
        break;
      case ']':
        if (!squares.empty()) {
          match[i] = static_cast<int>(squares.back());
          match[squares.back()] = static_cast<int>(i);
          squares.pop_back();
        }
        break;
      default: break;
    }
  }
  return match;
}

bool IsTok(const Token& t, std::string_view s) { return t.text == s; }

// ---------------------------------------------------------------------------
// Class definitions.
// ---------------------------------------------------------------------------

/// Parses the depth-1 member declarations of a class body: member-variable
/// names, timer-typed members, and method names. Nested braces (inline method
/// bodies, nested classes) are skipped over.
void ParseClassMembers(const std::vector<Token>& t, const std::vector<int>& match,
                       ClassDef* cls) {
  size_t i = cls->body_begin + 1;
  size_t stmt_begin = i;
  while (i < cls->body_end) {
    const std::string& s = t[i].text;
    if (s == "{" || s == "(" || s == "[") {
      int m = match[i];
      if (m < 0 || static_cast<size_t>(m) > cls->body_end) break;
      if (s == "{") {
        // Inline method body (or nested class / brace init). A method body
        // ends the "statement" without a semicolon.
        i = static_cast<size_t>(m) + 1;
        if (i < cls->body_end && IsTok(t[i], ";")) ++i;  // class/init `};`
        stmt_begin = i;
        continue;
      }
      i = static_cast<size_t>(m) + 1;
      continue;
    }
    if (s == ";") {
      // Statement [stmt_begin, i). Method declaration if it contains a '(',
      // member variable otherwise.
      size_t open = stmt_begin;
      while (open < i && !IsTok(t[open], "(")) ++open;
      if (open < i) {
        if (open > stmt_begin && t[open - 1].ident &&
            !IsKeyword(t[open - 1].text)) {
          cls->method_names.insert(t[open - 1].text);
        }
      } else {
        // Name = last identifier before ';' or before an '=' initializer.
        size_t end = i;
        for (size_t k = stmt_begin; k < i; ++k) {
          if (IsTok(t[k], "=")) {
            end = k;
            break;
          }
        }
        size_t name = end;
        while (name > stmt_begin && !t[name - 1].ident) --name;
        if (name > stmt_begin && t[name - 1].ident &&
            !IsKeyword(t[name - 1].text)) {
          const std::string& nm = t[name - 1].text;
          cls->members.insert(nm);
          for (size_t k = stmt_begin; k + 1 < name; ++k) {
            if (t[k].text == "Timer" || t[k].text == "PeriodicTimer") {
              cls->timer_members.insert(nm);
              break;
            }
          }
        }
      }
      ++i;
      stmt_begin = i;
      continue;
    }
    ++i;
  }
}

void FindClasses(const std::vector<Token>& t, const std::vector<int>& match,
                 FileIndex* idx) {
  for (size_t i = 0; i + 1 < t.size(); ++i) {
    if (!(IsTok(t[i], "class") || IsTok(t[i], "struct"))) continue;
    if (i > 0 && IsTok(t[i - 1], "enum")) continue;  // enum class
    size_t j = i + 1;
    // Skip attributes between the keyword and the name:
    // `class [[nodiscard]] Result`, `class alignas(64) Slab`.
    while (j < t.size() &&
           ((IsTok(t[j], "[") && match[j] >= 0) ||
            (IsTok(t[j], "alignas") && j + 1 < t.size() &&
             IsTok(t[j + 1], "(") && match[j + 1] >= 0))) {
      j = static_cast<size_t>(match[IsTok(t[j], "[") ? j : j + 1]) + 1;
    }
    if (j >= t.size() || !t[j].ident || IsKeyword(t[j].text)) continue;
    ClassDef cls;
    cls.name = t[j].text;
    cls.line = t[j].line;
    // Scan to the body '{' or a ';' (forward declaration). Base-class lists
    // may contain template angle brackets but no braces.
    size_t k = j + 1;
    while (k < t.size() && !IsTok(t[k], "{") && !IsTok(t[k], ";") &&
           !IsTok(t[k], "(")) {
      ++k;
    }
    if (k >= t.size() || !IsTok(t[k], "{")) continue;
    if (match[k] < 0) continue;
    cls.body_begin = k;
    cls.body_end = static_cast<size_t>(match[k]);
    ParseClassMembers(t, match, &cls);
    idx->classes.push_back(std::move(cls));
  }
}

// ---------------------------------------------------------------------------
// Function definitions.
// ---------------------------------------------------------------------------

bool IsControlKeyword(std::string_view s) {
  return s == "if" || s == "for" || s == "while" || s == "switch" ||
         s == "catch" || s == "return" || s == "sizeof" || s == "alignof" ||
         s == "decltype" || s == "new" || s == "delete" || s == "assert";
}

/// Given the ')' closing a parameter list, skips trailing specifiers
/// (const/noexcept/override/..., trailing return type, ctor init list) and
/// returns the index of the body '{', or npos if this is not a definition.
size_t FindBodyBrace(const std::vector<Token>& t, const std::vector<int>& match,
                     size_t close_paren) {
  size_t i = close_paren + 1;
  bool in_init_list = false;
  while (i < t.size()) {
    const std::string& s = t[i].text;
    if (s == ";" || s == "=") return std::string::npos;  // decl / =default
    if (s == "{") {
      if (in_init_list && i > 0 && (t[i - 1].ident || IsTok(t[i - 1], ">"))) {
        // Member brace-init `b_{y}` inside a ctor init list; skip it.
        if (match[i] < 0) return std::string::npos;
        i = static_cast<size_t>(match[i]) + 1;
        continue;
      }
      return i;
    }
    if (s == ":") {
      in_init_list = true;
      ++i;
      continue;
    }
    if (s == "(") {  // member init `a_(x)` or noexcept(...)
      if (match[i] < 0) return std::string::npos;
      i = static_cast<size_t>(match[i]) + 1;
      continue;
    }
    if (s == ")" || s == "}") return std::string::npos;
    ++i;  // const, noexcept, override, final, ->, type tokens, commas, ...
  }
  return std::string::npos;
}

void FindFunctions(const std::vector<Token>& t, const std::vector<int>& match,
                   FileIndex* idx) {
  for (size_t i = 1; i + 1 < t.size(); ++i) {
    if (!t[i].ident || IsKeyword(t[i].text) || !IsTok(t[i + 1], "(")) continue;
    if (IsControlKeyword(t[i].text)) continue;
    if (match[i + 1] < 0) continue;
    size_t close = static_cast<size_t>(match[i + 1]);
    size_t body = FindBodyBrace(t, match, close);
    if (body == std::string::npos || match[body] < 0) continue;
    FunctionDef fn;
    fn.name = t[i].text;
    fn.line = t[i].line;
    fn.body_begin = body;
    fn.body_end = static_cast<size_t>(match[body]);
    // Qualifier / dtor detection, walking back from the name.
    size_t p = i;
    if (p > 0 && IsTok(t[p - 1], "~")) {
      fn.is_dtor = true;
      fn.cls = fn.name;
      if (p > 1 && IsTok(t[p - 2], "::") && t[p - 3].ident) fn.cls = fn.name;
    } else if (p > 1 && IsTok(t[p - 1], "::") && t[p - 2].ident &&
               !IsKeyword(t[p - 2].text)) {
      fn.cls = t[p - 2].text;
    }
    idx->functions.push_back(std::move(fn));
  }
  // Inline methods: attribute enclosing class to functions without an
  // explicit qualifier whose body lies inside a class body.
  for (FunctionDef& fn : idx->functions) {
    if (!fn.cls.empty()) continue;
    const ClassDef* innermost = nullptr;
    for (const ClassDef& cls : idx->classes) {
      if (fn.body_begin > cls.body_begin && fn.body_end < cls.body_end) {
        if (innermost == nullptr || cls.body_begin > innermost->body_begin) {
          innermost = &cls;
        }
      }
    }
    if (innermost != nullptr) fn.cls = innermost->name;
  }
}

// ---------------------------------------------------------------------------
// Lambda expressions.
// ---------------------------------------------------------------------------

/// Parses the capture list of the lambda introduced at token `intro` ('[').
/// Returns false when the bracket pair is not actually a lambda introducer.
bool ParseLambda(const std::vector<Token>& t, const std::vector<int>& match,
                 size_t intro, LambdaExpr* out) {
  if (match[intro] < 0) return false;
  size_t close = static_cast<size_t>(match[intro]);
  // After the capture list a lambda has (params), a template <...>, or its
  // body '{' directly.
  if (close + 1 >= t.size()) return false;
  const std::string& after = t[close + 1].text;
  if (after != "(" && after != "{" && after != "<" && after != "mutable" &&
      after != "->") {
    return false;
  }
  out->line = t[intro].line;
  out->intro = intro;
  // Split the capture list at top-level commas.
  std::vector<std::vector<const Token*>> items(1);
  int depth = 0;
  for (size_t i = intro + 1; i < close; ++i) {
    const std::string& s = t[i].text;
    if (s == "(" || s == "{" || s == "[" || s == "<") ++depth;
    if (s == ")" || s == "}" || s == "]" || s == ">") --depth;
    if (s == "," && depth == 0) {
      items.emplace_back();
      continue;
    }
    items.back().push_back(&t[i]);
  }
  for (const auto& item : items) {
    if (item.empty()) continue;
    if (item.size() == 1 && item[0]->text == "&") {
      out->ref_default = true;
    } else if (item.size() == 1 && item[0]->text == "=") {
      out->copy_default = true;
    } else if (item[0]->text == "this") {
      out->captures_this = true;
    } else if (item[0]->text == "*" && item.size() > 1 &&
               item[1]->text == "this") {
      // [*this] copies the object: lifetime-safe, not a risky capture.
    } else if (item[0]->text == "&" && item.size() > 1 && item[1]->ident) {
      out->by_ref.push_back(item[1]->text);
    } else if (item[0]->ident && !IsKeyword(item[0]->text)) {
      out->by_copy.push_back(item[0]->text);  // [x] or [x = init]
    }
  }
  return true;
}

/// Finds the innermost call the lambda at `intro` is an argument of:
/// walks back over preceding argument tokens to an unmatched '(' and reads
/// the callee (and `recv.callee` / `recv->callee` receiver) before it.
void FindCallContext(const std::vector<Token>& t, const std::vector<int>& match,
                     size_t intro, LambdaExpr* out) {
  size_t i = intro;
  while (i > 0) {
    --i;
    const std::string& s = t[i].text;
    if (s == ")" || s == "}" || s == "]") {
      if (match[i] < 0) return;
      i = static_cast<size_t>(match[i]);
      continue;
    }
    if (s == ";" || s == "{") return;  // statement start: not a call argument
    if (s == "(") {
      if (i == 0 || !t[i - 1].ident || IsKeyword(t[i - 1].text)) return;
      out->callee = t[i - 1].text;
      if (i >= 3 && (IsTok(t[i - 2], ".") || IsTok(t[i - 2], "->") ||
                     IsTok(t[i - 2], "::"))) {
        out->receiver = t[i - 3].ident ? t[i - 3].text : "?";
      }
      return;
    }
  }
}

void FindLambdas(const std::vector<Token>& t, const std::vector<int>& match,
                 FileIndex* idx) {
  for (size_t i = 0; i + 1 < t.size(); ++i) {
    if (!IsTok(t[i], "[")) continue;
    if (IsTok(t[i + 1], "[")) continue;  // [[attribute]]
    if (i > 0 && (t[i - 1].ident || IsTok(t[i - 1], "]") ||
                  IsTok(t[i - 1], ")"))) {
      continue;  // subscript a[i], arr[0](...)
    }
    LambdaExpr lam;
    if (!ParseLambda(t, match, i, &lam)) continue;
    FindCallContext(t, match, i, &lam);
    // Attribute to the innermost enclosing function.
    FunctionDef* owner = nullptr;
    for (FunctionDef& fn : idx->functions) {
      if (i > fn.body_begin && i < fn.body_end) {
        if (owner == nullptr || fn.body_begin > owner->body_begin) owner = &fn;
      }
    }
    if (owner != nullptr) owner->lambdas.push_back(std::move(lam));
  }
}

// ---------------------------------------------------------------------------
// Namespace-scope exports (include-hygiene).
// ---------------------------------------------------------------------------

bool InsideAny(size_t i, const FileIndex& idx) {
  for (const ClassDef& c : idx.classes) {
    if (i > c.body_begin && i < c.body_end) return true;
  }
  for (const FunctionDef& f : idx.functions) {
    if (i > f.body_begin && i < f.body_end) return true;
  }
  return false;
}

void CollectExports(const SourceFile& file, FileIndex* idx) {
  const std::vector<Token>& t = file.tokens;
  // Classes, structs, enums (names), and their nested declarations.
  for (const ClassDef& c : idx->classes) {
    idx->strong_exports.insert(c.name);
    for (const auto& m : c.members) idx->weak_exports.insert(m);
    for (const auto& m : c.method_names) idx->weak_exports.insert(m);
  }
  for (size_t i = 0; i + 1 < t.size(); ++i) {
    const std::string& s = t[i].text;
    if (s == "enum") {
      size_t j = i + 1;
      if (j < t.size() && (IsTok(t[j], "class") || IsTok(t[j], "struct"))) ++j;
      if (j < t.size() && t[j].ident && !IsKeyword(t[j].text)) {
        idx->strong_exports.insert(t[j].text);
        // Enumerators: idents at depth 1 of the enum body.
        size_t k = j;
        while (k < t.size() && !IsTok(t[k], "{") && !IsTok(t[k], ";")) ++k;
        if (k < t.size() && IsTok(t[k], "{") && idx->match[k] >= 0) {
          for (size_t e = k + 1; e < static_cast<size_t>(idx->match[k]); ++e) {
            if (t[e].ident && !IsKeyword(t[e].text) &&
                (e == k + 1 || IsTok(t[e - 1], ","))) {
              idx->weak_exports.insert(t[e].text);
            }
          }
        }
      }
    } else if (s == "using" && i + 2 < t.size() && t[i + 1].ident &&
               IsTok(t[i + 2], "=")) {
      (InsideAny(i, *idx) ? idx->weak_exports : idx->strong_exports)
          .insert(t[i + 1].text);
    } else if (s == "operator" && !InsideAny(i, *idx)) {
      idx->exports_operators = true;
    } else if (s == "template" && IsTok(t[i + 1], "<") && !InsideAny(i, *idx)) {
      // Explicit specialization `template <> ...` has no name of its own.
      if (i + 2 < t.size() && IsTok(t[i + 2], ">")) {
        idx->exports_operators = true;
      }
    } else if (s == "constexpr" && !InsideAny(i, *idx)) {
      // `constexpr T kName = ...;` / `constexpr char kName[] = ...;`
      size_t k = i + 1;
      size_t name = 0;
      while (k < t.size() && !IsTok(t[k], ";") && !IsTok(t[k], "=") &&
             !IsTok(t[k], "(")) {
        if (IsTok(t[k], "[")) break;
        if (t[k].ident && !IsKeyword(t[k].text)) name = k;
        ++k;
      }
      if (name != 0 && k < t.size() && !IsTok(t[k], "(")) {
        idx->strong_exports.insert(t[name].text);
      }
    }
  }
  // Free functions declared or defined at namespace scope.
  for (const FunctionDef& fn : idx->functions) {
    if (fn.cls.empty() && !InsideAny(fn.body_begin, *idx)) {
      idx->strong_exports.insert(fn.name);
    }
  }
  for (size_t i = 1; i + 1 < t.size(); ++i) {
    // Declarations (no body): `Ret Name(...);` at namespace scope with a
    // type-ish token before the name.
    if (!t[i].ident || IsKeyword(t[i].text) || !IsTok(t[i + 1], "(")) continue;
    if (IsControlKeyword(t[i].text) || InsideAny(i, *idx)) continue;
    if (idx->match[i + 1] < 0) continue;
    size_t close = static_cast<size_t>(idx->match[i + 1]);
    // Skip trailing qualifiers and attributes before the terminating ';':
    // `std::string StrFormat(...) __attribute__((format(printf, 1, 2)));`
    size_t q = close + 1;
    while (q < t.size()) {
      if (t[q].ident && (t[q].text == "noexcept" || t[q].text == "const" ||
                         t[q].text == "__attribute__")) {
        ++q;
        continue;
      }
      if ((IsTok(t[q], "(") || IsTok(t[q], "[")) && idx->match[q] >= 0) {
        q = static_cast<size_t>(idx->match[q]) + 1;
        continue;
      }
      break;
    }
    if (q < t.size() && IsTok(t[q], ";")) {
      const Token& prev = t[i - 1];
      bool typeish = (prev.ident && !IsControlKeyword(prev.text)) ||
                     prev.text == ">" || prev.text == "*" || prev.text == "&";
      if (typeish) idx->strong_exports.insert(t[i].text);
    }
  }
  // Macros.
  for (size_t li = 0; li < file.raw_lines.size(); ++li) {
    const std::string& raw = file.raw_lines[li];
    size_t p = raw.find_first_not_of(" \t");
    if (p == std::string::npos || raw[p] != '#') continue;
    size_t d = raw.find("define", p + 1);
    if (d == std::string::npos) continue;
    size_t q = d + 6;
    while (q < raw.size() && (raw[q] == ' ' || raw[q] == '\t')) ++q;
    size_t e = q;
    while (e < raw.size() && IsIdentChar(raw[e])) ++e;
    if (e > q) idx->strong_exports.insert(raw.substr(q, e - q));
  }
}

}  // namespace

bool IsIdentChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

bool IsKeyword(std::string_view s) {
  static const std::set<std::string_view> kKw = {
      "alignas",  "alignof",  "auto",     "bool",     "break",    "case",
      "catch",    "char",     "class",    "const",    "constexpr",
      "continue", "decltype", "default",  "delete",   "do",       "double",
      "else",     "enum",     "explicit", "extern",   "false",    "float",
      "for",      "friend",   "goto",     "if",       "inline",   "int",
      "long",     "mutable",  "namespace", "new",     "noexcept", "nullptr",
      "operator", "private",  "protected", "public",  "return",   "short",
      "signed",   "sizeof",   "static",   "struct",   "switch",   "template",
      "this",     "throw",    "true",     "try",      "typedef",  "typename",
      "union",    "unsigned", "using",    "virtual",  "void",     "volatile",
      "while",    "co_await", "co_return", "co_yield", "final",   "override",
  };
  return kKw.count(s) > 0;
}

std::string StripCommentsAndStrings(const std::string& src) {
  std::string out = src;
  enum class St { kNormal, kLine, kBlock, kStr, kChar, kRaw };
  St st = St::kNormal;
  std::string raw_delim;  // for R"delim( ... )delim"
  for (size_t i = 0; i < src.size(); ++i) {
    char c = src[i];
    char next = i + 1 < src.size() ? src[i + 1] : '\0';
    switch (st) {
      case St::kNormal:
        if (c == '/' && next == '/') {
          st = St::kLine;
          out[i] = out[i + 1] = ' ';
          ++i;
        } else if (c == '/' && next == '*') {
          st = St::kBlock;
          out[i] = out[i + 1] = ' ';
          ++i;
        } else if (c == 'R' && next == '"' &&
                   (i == 0 || !IsIdentChar(src[i - 1]))) {
          size_t open = src.find('(', i + 2);
          if (open != std::string::npos) {
            raw_delim = ")" + src.substr(i + 2, open - i - 2) + "\"";
            for (size_t k = i; k <= open; ++k)
              if (out[k] != '\n') out[k] = ' ';
            i = open;
            st = St::kRaw;
          }
        } else if (c == '"') {
          st = St::kStr;
        } else if (c == '\'' && i > 0 && IsIdentChar(src[i - 1])) {
          // digit separator (1'000'000) or suffix — not a char literal
        } else if (c == '\'') {
          st = St::kChar;
        }
        break;
      case St::kLine:
        if (c == '\n')
          st = St::kNormal;
        else
          out[i] = ' ';
        break;
      case St::kBlock:
        if (c == '*' && next == '/') {
          out[i] = out[i + 1] = ' ';
          st = St::kNormal;
          ++i;
        } else if (c != '\n') {
          out[i] = ' ';
        }
        break;
      case St::kStr:
      case St::kChar:
        if (c == '\\' && next != '\0') {
          out[i] = ' ';
          if (next != '\n') out[i + 1] = ' ';
          ++i;
        } else if ((st == St::kStr && c == '"') ||
                   (st == St::kChar && c == '\'')) {
          st = St::kNormal;
        } else if (c != '\n') {
          out[i] = ' ';
        }
        break;
      case St::kRaw:
        if (src.compare(i, raw_delim.size(), raw_delim) == 0) {
          for (size_t k = 0; k < raw_delim.size(); ++k)
            if (out[i + k] != '\n') out[i + k] = ' ';
          i += raw_delim.size() - 1;
          st = St::kNormal;
        } else if (c != '\n') {
          out[i] = ' ';
        }
        break;
    }
  }
  return out;
}

std::vector<Token> Tokenize(const std::vector<std::string>& stripped_lines) {
  std::vector<Token> toks;
  for (size_t li = 0; li < stripped_lines.size(); ++li) {
    const std::string& s = stripped_lines[li];
    int line = static_cast<int>(li) + 1;
    size_t i = 0;
    while (i < s.size()) {
      char c = s[i];
      if (std::isspace(static_cast<unsigned char>(c))) {
        ++i;
        continue;
      }
      if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
        size_t j = i;
        while (j < s.size() && IsIdentChar(s[j])) ++j;
        toks.push_back({s.substr(i, j - i), line, true});
        i = j;
        continue;
      }
      if (std::isdigit(static_cast<unsigned char>(c))) {
        size_t j = i;
        while (j < s.size() && (IsIdentChar(s[j]) || s[j] == '.')) ++j;
        toks.push_back({s.substr(i, j - i), line, false});
        i = j;
        continue;
      }
      // Two-char puncts the scanners care about.
      if (i + 1 < s.size()) {
        std::string two = s.substr(i, 2);
        if (two == "::" || two == "->") {
          toks.push_back({two, line, false});
          i += 2;
          continue;
        }
      }
      toks.push_back({std::string(1, c), line, false});
      ++i;
    }
  }
  return toks;
}

SourceFile LoadSourceFile(const std::filesystem::path& path,
                          const std::string& rel) {
  std::string ext = path.extension().string();
  bool is_header = ext == ".h" || ext == ".hpp" || ext == ".hh";
  return ParseSource(ReadFileText(path), rel, is_header);
}

SourceFile ParseSource(const std::string& text, const std::string& rel,
                       bool is_header) {
  SourceFile f;
  f.rel = rel;
  f.is_header = is_header;
  f.raw_lines = SplitLines(text);
  f.stripped_lines = SplitLines(StripCommentsAndStrings(text));
  f.tokens = Tokenize(f.stripped_lines);
  for (size_t li = 0; li < f.raw_lines.size(); ++li)
    ParseNolint(f.raw_lines[li], static_cast<int>(li) + 1, &f.nolint);
  ParseIncludes(&f);
  return f;
}

FileIndex BuildIndex(const SourceFile& file) {
  FileIndex idx;
  idx.match = MatchBrackets(file.tokens);
  FindClasses(file.tokens, idx.match, &idx);
  FindFunctions(file.tokens, idx.match, &idx);
  FindLambdas(file.tokens, idx.match, &idx);
  CollectExports(file, &idx);
  return idx;
}

}  // namespace clouddb::lint
