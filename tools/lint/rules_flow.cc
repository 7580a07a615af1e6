#include "rules_flow.h"

#include <map>
#include <set>
#include <string>
#include <string_view>
#include <utility>

#include "frontend.h"
#include "linter.h"

namespace clouddb::lint {
namespace {

constexpr char kRuleCapture[] = "clouddb-dangling-capture";
constexpr char kRuleHygiene[] = "clouddb-include-hygiene";

bool StartsWith(const std::string& s, std::string_view prefix) {
  return s.rfind(prefix, 0) == 0;
}

// ---------------------------------------------------------------------------
// clouddb-dangling-capture
// ---------------------------------------------------------------------------

/// Class facts merged across every scanned file (class definitions usually
/// live in headers while the lambdas live in the .cc).
struct ClassFacts {
  bool found = false;
  bool has_timer_member = false;
  std::set<std::string> timer_members;
};

/// (class, method) -> body token range, per file, for the one-hop
/// destructor-calls-Cancel analysis.
struct MethodBody {
  const SourceFile* file;
  size_t begin, end;
};

bool RangeHasCall(const SourceFile& file, size_t begin, size_t end,
                  std::string_view name) {
  const auto& t = file.tokens;
  for (size_t i = begin; i + 1 < end; ++i) {
    if (t[i].ident && t[i].text == name && t[i + 1].text == "(") return true;
  }
  return false;
}

/// True when `cls` has a destructor that calls Cancel() — directly, or via a
/// method of the same class (one hop; enough for handle-vector helpers).
bool DtorCancels(const std::string& cls,
                 const std::multimap<std::string, MethodBody>& methods,
                 const std::multimap<std::string, MethodBody>& dtors) {
  auto [d_begin, d_end] = dtors.equal_range(cls);
  for (auto it = d_begin; it != d_end; ++it) {
    const MethodBody& dtor = it->second;
    if (RangeHasCall(*dtor.file, dtor.begin, dtor.end, "Cancel")) return true;
    // One hop: the dtor calls a sibling method that cancels.
    const auto& t = dtor.file->tokens;
    for (size_t i = dtor.begin; i + 1 < dtor.end; ++i) {
      if (!t[i].ident || t[i + 1].text != "(") continue;
      auto [m_begin, m_end] = methods.equal_range(cls + "::" + t[i].text);
      for (auto mit = m_begin; mit != m_end; ++mit) {
        const MethodBody& m = mit->second;
        if (RangeHasCall(*m.file, m.begin, m.end, "Cancel")) return true;
      }
    }
  }
  return false;
}

/// Raw-pointer locals/parameters of a function body (token-pattern match on
/// `T* name` followed by '=', ';', ',' or ')').
std::set<std::string> PointerNames(const SourceFile& file, size_t begin,
                                   size_t end) {
  std::set<std::string> names;
  const auto& t = file.tokens;
  // Include the parameter list: scan from a bit before the body too — the
  // caller passes the body range, so walk back to the function's '(' is not
  // available here; parameters declared `Foo* p` appear right before `{` and
  // are covered by starting a few tokens early.
  size_t start = begin > 32 ? begin - 32 : 0;
  for (size_t i = start + 1; i + 2 < end; ++i) {
    if (t[i].text != "*" || !t[i + 1].ident) continue;
    const std::string& next = t[i + 2].text;
    if (next != "=" && next != ";" && next != "," && next != ")") continue;
    if (!(t[i - 1].ident || t[i - 1].text == ">")) continue;
    names.insert(t[i + 1].text);
  }
  return names;
}

bool IsLocalTimer(const SourceFile& file, const FunctionDef& fn,
                  const LambdaExpr& lam, const std::string& name) {
  const auto& t = file.tokens;
  for (size_t i = fn.body_begin; i + 1 < lam.intro; ++i) {
    if ((t[i].text == "Timer" || t[i].text == "PeriodicTimer") &&
        t[i + 1].ident && t[i + 1].text == name) {
      return true;
    }
  }
  return false;
}

}  // namespace

void CheckDanglingCaptures(const std::vector<AnalyzedFile>& files,
                           std::vector<Diagnostic>* out_) {
  // Merge class facts and collect method/dtor bodies across all files.
  std::map<std::string, ClassFacts> classes;
  std::multimap<std::string, MethodBody> methods;  // "Cls::Method" -> body
  std::multimap<std::string, MethodBody> dtors;    // "Cls" -> dtor body
  for (const AnalyzedFile& af : files) {
    for (const ClassDef& c : af.index->classes) {
      ClassFacts& facts = classes[c.name];
      facts.found = true;
      if (!c.timer_members.empty()) facts.has_timer_member = true;
      facts.timer_members.insert(c.timer_members.begin(),
                                 c.timer_members.end());
    }
    for (const FunctionDef& fn : af.index->functions) {
      if (fn.cls.empty()) continue;
      MethodBody body{af.file, fn.body_begin, fn.body_end};
      if (fn.is_dtor) {
        dtors.emplace(fn.cls, body);
      } else {
        methods.emplace(fn.cls + "::" + fn.name, body);
      }
    }
  }

  for (const AnalyzedFile& af : files) {
    const SourceFile& file = *af.file;
    if (!StartsWith(file.rel, "src/")) continue;
    for (const FunctionDef& fn : af.index->functions) {
      for (const LambdaExpr& lam : fn.lambdas) {
        bool schedule_like = lam.callee == "ScheduleAt" ||
                             lam.callee == "ScheduleAfter" ||
                             lam.callee == "EventCallback";
        bool bind_like = lam.callee == "Bind" || lam.callee == "Start";
        if (!schedule_like && !bind_like) continue;

        if (bind_like) {
          // Binding to a timer whose lifetime covers the callback is the
          // sanctioned pattern: a timer member of the enclosing class, or a
          // timer local to this (stack) scope, releases its slot on
          // destruction.
          const std::string& recv = lam.receiver;
          if (!recv.empty() && recv != "?") {
            auto it = classes.find(fn.cls);
            if (it != classes.end() && it->second.timer_members.count(recv)) {
              continue;
            }
            if (IsLocalTimer(file, fn, lam, recv)) continue;
          }
          // `Start` is a common method name; without a resolved timer
          // receiver, treat it as an unrelated API.
          if (lam.callee == "Start") continue;
        }

        // Risky captures: anything that aliases state the scheduled-time
        // callback does not own.
        std::vector<std::string> risky;
        if (lam.captures_this) risky.push_back("'this'");
        if (lam.ref_default && !fn.cls.empty()) risky.push_back("'&' (default ref)");
        if (lam.copy_default && !fn.cls.empty()) risky.push_back("'=' (captures this)");
        for (const std::string& r : lam.by_ref) risky.push_back("'&" + r + "'");
        std::set<std::string> ptrs =
            PointerNames(file, fn.body_begin, fn.body_end);
        for (const std::string& c : lam.by_copy) {
          if (ptrs.count(c)) risky.push_back("raw pointer '" + c + "'");
        }
        if (risky.empty()) continue;
        // Stack-owned contexts (free functions) drive the Simulation from
        // the same frame the captures live in; documented false-negative
        // trade for zero noise.
        if (fn.cls.empty()) continue;
        auto it = classes.find(fn.cls);
        if (it == classes.end() || !it->second.found) continue;
        if (it->second.has_timer_member) continue;
        if (DtorCancels(fn.cls, methods, dtors)) continue;

        std::string what;
        for (size_t i = 0; i < risky.size(); ++i) {
          if (i > 0) what += ", ";
          what += risky[i];
        }
        out_->push_back(
            {file.rel, lam.line, kRuleCapture,
             "lambda passed to '" + lam.callee + "' captures " + what +
                 " but class '" + fn.cls +
                 "' has no cancelling sim::Timer/PeriodicTimer member and no "
                 "destructor-side Cancel; the callback can fire after the "
                 "object dies — bind through a Timer member, store and Cancel "
                 "the EventHandle in the destructor, or capture by value"});
      }
    }
  }
}

// ---------------------------------------------------------------------------
// clouddb-include-hygiene
// ---------------------------------------------------------------------------

namespace {

std::string DirOf(const std::string& rel) {
  size_t slash = rel.find_last_of('/');
  return slash == std::string::npos ? "" : rel.substr(0, slash + 1);
}

std::string StemOf(const std::string& rel) {
  size_t slash = rel.find_last_of('/');
  std::string base = slash == std::string::npos ? rel : rel.substr(slash + 1);
  size_t dot = base.find_last_of('.');
  return dot == std::string::npos ? base : base.substr(0, dot);
}

/// Resolves a quoted include path to a scanned file rel, or "".
std::string ResolveInclude(const std::map<std::string, AnalyzedFile>& by_rel,
                           const std::string& includer_rel,
                           const std::string& path) {
  std::string cand = "src/" + path;
  if (by_rel.count(cand)) return cand;
  cand = DirOf(includer_rel) + path;
  if (by_rel.count(cand)) return cand;
  return "";
}

/// The include spelling a file should use for in-tree header `target`:
/// src/-relative for src/ headers (the tree compiles with -Isrc), same-dir
/// filename otherwise, or "" when no canonical spelling exists.
std::string IncludeSpelling(const std::string& includer_rel,
                            const std::string& target) {
  if (StartsWith(target, "src/")) return target.substr(4);
  if (DirOf(target) == DirOf(includer_rel)) {
    return target.substr(DirOf(target).size());
  }
  return "";
}

}  // namespace

void CheckIncludeHygiene(const std::vector<AnalyzedFile>& files,
                         std::vector<Diagnostic>* out_) {
  std::map<std::string, AnalyzedFile> by_rel;
  for (const AnalyzedFile& af : files) by_rel[af.file->rel] = af;

  // Unique strong owner per symbol, headers only.
  std::map<std::string, std::string> owner;     // symbol -> header rel
  std::set<std::string> ambiguous;              // defined in 2+ headers
  for (const AnalyzedFile& af : files) {
    if (!af.file->is_header) continue;
    for (const std::string& sym : af.index->strong_exports) {
      auto [it, inserted] = owner.emplace(sym, af.file->rel);
      if (!inserted && it->second != af.file->rel) ambiguous.insert(sym);
    }
  }
  for (const std::string& sym : ambiguous) owner.erase(sym);

  for (const AnalyzedFile& af : files) {
    const SourceFile& file = *af.file;
    // Direct includes (resolved), the own header, and include lines.
    std::map<std::string, int> direct;  // resolved rel -> include line
    std::string own_header;
    for (const Include& inc : file.includes) {
      std::string target = ResolveInclude(by_rel, file.rel, inc.path);
      if (target.empty()) continue;
      direct.emplace(target, inc.line);
      if (!file.is_header && StemOf(target) == StemOf(file.rel)) {
        own_header = target;
      }
    }

    // Transitive closure of in-tree includes.
    std::set<std::string> reachable;
    std::vector<std::string> frontier;
    for (const auto& [rel, line] : direct) frontier.push_back(rel);
    while (!frontier.empty()) {
      std::string cur = frontier.back();
      frontier.pop_back();
      if (!reachable.insert(cur).second) continue;
      const AnalyzedFile& caf = by_rel.at(cur);
      for (const Include& inc : caf.file->includes) {
        std::string target = ResolveInclude(by_rel, cur, inc.path);
        if (!target.empty() && !reachable.count(target)) {
          frontier.push_back(target);
        }
      }
    }

    // Identifier usage set (tokens are comment/string-stripped already).
    std::set<std::string> used;
    std::map<std::string, int> first_use;
    for (size_t i = 0; i < file.tokens.size(); ++i) {
      const Token& tok = file.tokens[i];
      if (!tok.ident || IsKeyword(tok.text)) continue;
      // A forward declaration / friend declaration is not a use that needs
      // the definition's header.
      if (i > 0 && (file.tokens[i - 1].text == "class" ||
                    file.tokens[i - 1].text == "struct" ||
                    file.tokens[i - 1].text == "enum" ||
                    file.tokens[i - 1].text == "friend")) {
        continue;
      }
      used.insert(tok.text);
      first_use.emplace(tok.text, tok.line);
    }

    // (1) Unused direct includes.
    for (const auto& [target, line] : direct) {
      if (target == own_header || target == file.rel) continue;
      const AnalyzedFile& taf = by_rel.at(target);
      if (!taf.file->is_header) continue;
      if (taf.index->exports_operators) continue;  // un-nameable API
      bool any_export = !taf.index->strong_exports.empty() ||
                        !taf.index->weak_exports.empty();
      if (!any_export) continue;  // umbrella/config header: cannot judge
      bool used_any = false;
      for (const std::string& sym : taf.index->strong_exports) {
        if (used.count(sym)) {
          used_any = true;
          break;
        }
      }
      if (!used_any) {
        for (const std::string& sym : taf.index->weak_exports) {
          if (used.count(sym)) {
            used_any = true;
            break;
          }
        }
      }
      if (!used_any) {
        std::string spelling = IncludeSpelling(file.rel, target);
        Diagnostic d{file.rel, line, kRuleHygiene,
                     "include \"" + (spelling.empty() ? target : spelling) +
                         "\" is unused: no symbol it declares is referenced "
                         "here; remove it (clouddb_lint --fix)"};
        d.fix_kind = FixKind::kRemoveLine;
        out_->push_back(std::move(d));
      }
    }

    // (2) Used but only transitively included.
    std::map<std::string, std::pair<std::string, int>> missing;  // header -> (sym, line)
    for (const std::string& sym : used) {
      auto it = owner.find(sym);
      if (it == owner.end()) continue;
      const std::string& header = it->second;
      if (header == file.rel || header == own_header) continue;
      if (direct.count(header)) continue;
      if (!reachable.count(header)) continue;  // different thing entirely
      // The file redeclares the name itself (helper shadowing an in-tree
      // name): its own declaration is what's used.
      if (af.index->strong_exports.count(sym) ||
          af.index->weak_exports.count(sym)) {
        continue;
      }
      if (IncludeSpelling(file.rel, header).empty()) continue;
      auto [mit, inserted] =
          missing.emplace(header, std::make_pair(sym, first_use.at(sym)));
      if (!inserted && first_use.at(sym) < mit->second.second) {
        mit->second = {sym, first_use.at(sym)};
      }
    }
    for (const auto& [header, sym_line] : missing) {
      std::string spelling = IncludeSpelling(file.rel, header);
      Diagnostic d{file.rel, sym_line.second, kRuleHygiene,
                   "'" + sym_line.first + "' is declared in \"" + spelling +
                       "\" which is only transitively included; include it "
                       "directly (clouddb_lint --fix)"};
      d.fix_kind = FixKind::kAddInclude;
      d.fix_include = spelling;
      out_->push_back(std::move(d));
    }
  }
}

}  // namespace clouddb::lint
