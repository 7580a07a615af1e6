#include "rules_interproc.h"

#include <algorithm>
#include <string_view>

#include "dataflow.h"
#include "frontend.h"
#include "callgraph.h"
#include "cfg.h"
#include "linter.h"
#include "rules_flow.h"

namespace clouddb::lint {
namespace {

constexpr char kRuleUseAfterMove[] = "clouddb-use-after-move";
constexpr char kRuleStatusPath[] = "clouddb-status-path";
constexpr char kRuleDetTaint[] = "clouddb-determinism-taint";

bool StartsWith(const std::string& s, std::string_view prefix) {
  return s.rfind(prefix, 0) == 0;
}

bool SrcFile(const std::string& rel) { return StartsWith(rel, "src/"); }

/// Maps every token index inside a function body to its CFG node (or -1 for
/// tokens not covered by any node, e.g. bare braces).
std::vector<int> TokenToNode(const Cfg& cfg, const FunctionDef& fn) {
  std::vector<int> node_of(fn.body_end + 1, -1);
  for (size_t n = 0; n < cfg.nodes.size(); ++n) {
    const CfgNode& nd = cfg.nodes[n];
    for (size_t j = nd.begin; j < nd.end && j < node_of.size(); ++j)
      node_of[j] = static_cast<int>(n);
  }
  return node_of;
}

}  // namespace

InterprocContext BuildInterprocContext(const std::vector<AnalyzedFile>& files) {
  InterprocContext ctx;
  ctx.files = &files;
  ctx.cg = BuildCallGraph(files, SrcFile);
  ctx.cfgs.reserve(ctx.cg.functions.size());
  for (const CgFunction& f : ctx.cg.functions) {
    const AnalyzedFile& af = files[static_cast<size_t>(f.file)];
    ctx.cfgs.push_back(BuildCfg(*af.file, *af.index, *f.fn));
  }
  return ctx;
}

// ---------------------------------------------------------------------------
// clouddb-use-after-move.
// ---------------------------------------------------------------------------

namespace {

struct MoveEvent {
  enum class Kind { kMove, kKill, kUse };
  Kind kind;
  size_t var;  // fact id
  size_t token;
  int line;
};

/// True when token j is the `v` of a `std::move(v)` / `move(v)` expression.
bool IsMoveArg(const std::vector<Token>& t, size_t j) {
  if (j < 2 || j + 1 >= t.size()) return false;
  if (t[j - 1].text != "(" || t[j - 2].text != "move" || t[j + 1].text != ")")
    return false;
  size_t m = j - 2;
  if (m >= 2 && t[m - 1].text == "::")
    return t[m - 2].text == "std";           // std::move(v)
  return m == 0 || (t[m - 1].text != "." && t[m - 1].text != "->");
}

/// Locals of `fn`: parameters plus body-scope declarations, by name.
/// Token-level, so it over-collects rarely and misses ctor-style `T v(x);`
/// declarations — both err toward fewer diagnostics.
void CollectLocals(const std::vector<Token>& t, const FunctionDef& fn,
                   FactTable* vars) {
  for (size_t j = fn.params_begin; j < fn.params_end; ++j) {
    if (!t[j].ident || IsKeyword(t[j].text) || j == fn.params_begin) continue;
    const std::string& prev = t[j - 1].text;
    bool typed_before = (t[j - 1].ident && !IsKeyword(t[j - 1].text)) ||
                        prev == ">" || prev == "*" || prev == "&";
    const std::string& next = t[j + 1].text;
    bool decl_after = next == "," || next == ")" || next == "=" || next == "[";
    if (typed_before && decl_after) vars->Intern(t[j].text);
  }
  for (size_t j = fn.body_begin + 1; j + 1 < fn.body_end; ++j) {
    if (!t[j].ident || IsKeyword(t[j].text)) continue;
    const Token& p = t[j - 1];
    bool typed_before = (p.ident && (!IsKeyword(p.text) || p.text == "auto")) ||
                        p.text == ">" || p.text == "*" || p.text == "&";
    if (!typed_before) continue;
    const std::string& next = t[j + 1].text;
    if (next == "=" || next == ";" || next == "{" || next == ":")
      vars->Intern(t[j].text);
  }
}

bool InsideLambda(const FunctionDef& fn, size_t j) {
  for (const LambdaExpr& lam : fn.lambdas) {
    if (lam.body_begin != 0 && j > lam.body_begin && j < lam.body_end)
      return true;
  }
  return false;
}

/// Classifies every occurrence of a tracked local inside [begin, end) into
/// move / kill / use events, in token order. Lambda bodies are opaque.
void ScanMoveEvents(const std::vector<Token>& t, const FunctionDef& fn,
                    const FactTable& vars, size_t begin, size_t end,
                    std::vector<MoveEvent>* out) {
  for (size_t j = begin; j < end; ++j) {
    if (!t[j].ident) continue;
    size_t var = vars.Find(t[j].text);
    if (var == FactTable::npos || InsideLambda(fn, j)) continue;
    const std::string prev = j > 0 ? t[j - 1].text : "";
    if (prev == "." || prev == "->" || prev == "::") continue;  // x.v
    if (IsMoveArg(t, j)) {
      out->push_back({MoveEvent::Kind::kMove, var, j, t[j].line});
      continue;
    }
    const std::string next = j + 1 < t.size() ? t[j + 1].text : "";
    bool plain_assign =
        next == "=" && (j + 2 >= t.size() || t[j + 2].text != "=");
    // Re-declaration / reference binding / address-of out-param. A `*`
    // only introduces a declaration when a type name precedes it
    // (`Row* v`); a bare `*v` is a pointer dereference, i.e. a use.
    bool redecl = prev == "&" || prev == ">" ||
                  (prev == "*" && j >= 2 && t[j - 2].ident &&
                   !IsKeyword(t[j - 2].text)) ||
                  (t[j - 1].ident && (!IsKeyword(prev) || prev == "auto"));
    bool refill = (next == "." || next == "->") && j + 2 < t.size() &&
                  (t[j + 2].text == "reset" || t[j + 2].text == "clear" ||
                   t[j + 2].text == "assign" || t[j + 2].text == "emplace");
    if (plain_assign || redecl || refill) {
      out->push_back({MoveEvent::Kind::kKill, var, j, t[j].line});
    } else {
      out->push_back({MoveEvent::Kind::kUse, var, j, t[j].line});
    }
  }
}

}  // namespace

void CheckUseAfterMove(const InterprocContext& ctx,
                       std::vector<Diagnostic>* out) {
  const std::vector<AnalyzedFile>& files = *ctx.files;
  for (size_t fi = 0; fi < ctx.cg.functions.size(); ++fi) {
    const CgFunction& f = ctx.cg.functions[fi];
    const AnalyzedFile& af = files[static_cast<size_t>(f.file)];
    const std::vector<Token>& t = af.file->tokens;
    const Cfg& cfg = ctx.cfgs[fi];
    if (!cfg.ok) continue;

    FactTable vars;
    CollectLocals(t, *f.fn, &vars);
    if (vars.size() == 0) continue;

    // Fast path: no tracked local is ever moved in this function.
    std::vector<int> first_move_line(vars.size(), 0);
    bool any_move = false;
    for (size_t j = f.fn->body_begin + 1; j + 1 < f.fn->body_end; ++j) {
      if (!t[j].ident || InsideLambda(*f.fn, j)) continue;
      size_t var = vars.Find(t[j].text);
      if (var == FactTable::npos || !IsMoveArg(t, j)) continue;
      if (first_move_line[var] == 0) first_move_line[var] = t[j].line;
      any_move = true;
    }
    if (!any_move) continue;

    // Node-level gen/kill: the last move/kill event in the node wins.
    std::vector<std::vector<bool>> gen(cfg.nodes.size());
    std::vector<std::vector<bool>> kill(cfg.nodes.size());
    std::vector<std::vector<MoveEvent>> per_node(cfg.nodes.size());
    for (size_t n = 0; n < cfg.nodes.size(); ++n) {
      const CfgNode& nd = cfg.nodes[n];
      if (nd.begin >= nd.end) continue;
      ScanMoveEvents(t, *f.fn, vars, nd.begin, nd.end, &per_node[n]);
      for (const MoveEvent& ev : per_node[n]) {
        if (ev.kind == MoveEvent::Kind::kUse) continue;
        if (gen[n].empty()) gen[n].assign(vars.size(), false);
        if (kill[n].empty()) kill[n].assign(vars.size(), false);
        bool moved = ev.kind == MoveEvent::Kind::kMove;
        gen[n][ev.var] = moved;
        kill[n][ev.var] = !moved;
      }
    }
    DataflowResult moved = SolveForward(cfg, vars.size(), gen, kill);

    // Replay node events against the incoming moved-from set.
    std::set<std::string> seen;  // one report per (var, line)
    for (size_t n = 0; n < cfg.nodes.size(); ++n) {
      if (per_node[n].empty()) continue;
      std::vector<bool> state = moved.in[n];
      state.resize(vars.size(), false);
      for (const MoveEvent& ev : per_node[n]) {
        switch (ev.kind) {
          case MoveEvent::Kind::kKill:
            state[ev.var] = false;
            break;
          case MoveEvent::Kind::kMove:
          case MoveEvent::Kind::kUse:
            if (state[ev.var] &&
                seen.insert(vars.Name(ev.var) + ":" +
                            std::to_string(ev.line)).second) {
              bool dbl = ev.kind == MoveEvent::Kind::kMove;
              out->push_back(
                  {af.file->rel, ev.line, kRuleUseAfterMove,
                   std::string(dbl ? "'" : "use of '") + vars.Name(ev.var) +
                       (dbl ? "' is moved again" : "' after it was moved") +
                       " (moved-from since line " +
                       std::to_string(first_move_line[ev.var]) +
                       " on some path); reinitialize it before this point"});
            }
            if (ev.kind == MoveEvent::Kind::kMove) state[ev.var] = true;
            break;
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// clouddb-status-path.
// ---------------------------------------------------------------------------

namespace {

/// A definition site of a status-typed local from a status-returning call.
struct StatusDef {
  size_t var;
  int node;
  int line;
};

/// True when [begin, end) contains a call to one of `status_fns`.
/// `Status::Ok()` does not count: an Ok-initialized accumulator that is
/// overwritten later is the intended pattern, not a dropped payload.
bool ContainsStatusCall(const std::vector<Token>& t, size_t begin, size_t end,
                        const std::set<std::string>& status_fns) {
  for (size_t j = begin; j + 1 < end; ++j) {
    if (t[j].ident && t[j + 1].text == "(" && t[j].text != "Ok" &&
        status_fns.count(t[j].text))
      return true;
  }
  return false;
}

size_t StatementEnd(const std::vector<Token>& t, size_t j, size_t limit) {
  while (j < limit && t[j].text != ";") ++j;
  return j;
}

}  // namespace

void CheckStatusPath(const InterprocContext& ctx,
                     const std::set<std::string>& status_fns,
                     std::vector<Diagnostic>* out) {
  if (status_fns.empty()) return;
  const std::vector<AnalyzedFile>& files = *ctx.files;
  for (size_t fi = 0; fi < ctx.cg.functions.size(); ++fi) {
    const CgFunction& f = ctx.cg.functions[fi];
    const AnalyzedFile& af = files[static_cast<size_t>(f.file)];
    const std::vector<Token>& t = af.file->tokens;
    const Cfg& cfg = ctx.cfgs[fi];
    if (!cfg.ok) continue;
    std::vector<int> node_of = TokenToNode(cfg, *f.fn);

    // Status-typed locals and their definition sites. A def is a declaration
    // or assignment whose right-hand side calls a known Status/Result
    // returning function; plain `Status st;` or `st = Status::Ok()` carry no
    // checkable payload and are ignored.
    FactTable vars;
    std::vector<size_t> decl_tokens;  // declaration name occurrences
    std::vector<StatusDef> defs;
    for (size_t j = f.fn->body_begin + 1; j + 1 < f.fn->body_end; ++j) {
      if (!t[j].ident || InsideLambda(*f.fn, j)) continue;
      bool status_decl = t[j - 1].text == "Status" ||
                         (t[j - 1].text == ">" &&
                          t[j].ident && !IsKeyword(t[j].text));
      bool auto_decl = t[j - 1].text == "auto";
      if (!(status_decl || auto_decl) || IsKeyword(t[j].text)) continue;
      const std::string& next = t[j + 1].text;
      if (next != "=" && next != ";") continue;
      if (next == "=" && j + 2 < t.size() && t[j + 2].text == "=") continue;
      size_t end = StatementEnd(t, j, f.fn->body_end);
      bool from_status_call =
          next == "=" && ContainsStatusCall(t, j + 2, end, status_fns);
      if (auto_decl && !from_status_call) continue;  // unrelated auto local
      size_t var = vars.Intern(t[j].text);
      decl_tokens.push_back(j);
      if (from_status_call && node_of[j] >= 0)
        defs.push_back({var, node_of[j], t[j].line});
    }
    if (defs.empty()) continue;

    // Later assignments `v = ... status_fn(...)` are defs too.
    for (size_t j = f.fn->body_begin + 1; j + 1 < f.fn->body_end; ++j) {
      if (!t[j].ident || vars.Find(t[j].text) == FactTable::npos) continue;
      if (InsideLambda(*f.fn, j)) continue;
      if (std::find(decl_tokens.begin(), decl_tokens.end(), j) !=
          decl_tokens.end())
        continue;
      const std::string& prev = t[j - 1].text;
      if (prev == "." || prev == "->" || prev == "::") continue;
      if (t[j + 1].text != "=" ||
          (j + 2 < t.size() && t[j + 2].text == "=")) continue;
      size_t end = StatementEnd(t, j, f.fn->body_end);
      if (ContainsStatusCall(t, j + 2, end, status_fns) && node_of[j] >= 0)
        defs.push_back({vars.Find(t[j].text), node_of[j], t[j].line});
    }

    // Node classification: per var, does the node read it (consume the
    // value) or only redefine it?
    std::vector<std::vector<bool>> reads(cfg.nodes.size());
    std::vector<std::vector<bool>> redefs(cfg.nodes.size());
    for (size_t j = f.fn->body_begin + 1; j + 1 < f.fn->body_end; ++j) {
      if (!t[j].ident || InsideLambda(*f.fn, j)) continue;
      size_t var = vars.Find(t[j].text);
      if (var == FactTable::npos) continue;
      if (std::find(decl_tokens.begin(), decl_tokens.end(), j) !=
          decl_tokens.end())
        continue;
      const std::string& prev = t[j - 1].text;
      if (prev == "." || prev == "->" || prev == "::") continue;
      int n = node_of[j];
      if (n < 0) continue;
      bool redef = t[j + 1].text == "=" &&
                   !(j + 2 < t.size() && t[j + 2].text == "=");
      auto& vec = redef ? redefs[static_cast<size_t>(n)]
                        : reads[static_cast<size_t>(n)];
      if (vec.empty()) vec.assign(vars.size(), false);
      vec[var] = true;
    }

    // DROP: a path that overwrites or leaves the function without reading.
    // READ: a path that consumes the value. Both backward may-analyses; a
    // node that reads never counts as a drop even if it also redefines.
    std::vector<std::vector<bool>> drop_gen(cfg.nodes.size());
    std::vector<std::vector<bool>> read_kill(cfg.nodes.size());
    for (size_t n = 0; n < cfg.nodes.size(); ++n) {
      if (redefs[n].empty()) continue;
      drop_gen[n].assign(vars.size(), false);
      read_kill[n].assign(vars.size(), false);
      for (size_t v = 0; v < vars.size(); ++v) {
        bool r = !reads[n].empty() && reads[n][v];
        drop_gen[n][v] = redefs[n][v] && !r;
        read_kill[n][v] = drop_gen[n][v];
      }
    }
    std::vector<bool> all(vars.size(), true);
    DataflowResult drop =
        SolveBackward(cfg, vars.size(), drop_gen, reads, all);
    DataflowResult read =
        SolveBackward(cfg, vars.size(), reads, read_kill);

    std::set<std::string> seen;
    for (const StatusDef& d : defs) {
      size_t n = static_cast<size_t>(d.node);
      bool dropped = !drop.out[n].empty() && drop.out[n][d.var];
      bool consumed = !read.out[n].empty() && read.out[n][d.var];
      if (dropped && consumed &&
          seen.insert(vars.Name(d.var) + ":" + std::to_string(d.line))
              .second) {
        out->push_back(
            {af.file->rel, d.line, kRuleStatusPath,
             "Status in '" + vars.Name(d.var) +
                 "' is checked on one path out of this definition but "
                 "silently dropped on another; check it on every path or "
                 "cast to (void)"});
      }
    }
  }
}

// ---------------------------------------------------------------------------
// clouddb-determinism-taint.
// ---------------------------------------------------------------------------

namespace {

/// Wall-clock and entropy primitives that make a function nondeterministic.
/// Seeded std engines (mt19937, ...) are excluded: the syntactic
/// clouddb-random rule polices where engines live; here only genuine
/// environment reads taint. `call_only` names are common identifiers (time,
/// rand) that must look like a free-function call to count.
struct TaintSource {
  std::string_view name;
  bool call_only;
};

const std::vector<TaintSource>& TaintSources() {
  static const std::vector<TaintSource> kSources = {
      {"system_clock", false},   {"steady_clock", false},
      {"high_resolution_clock", false}, {"file_clock", false},
      {"utc_clock", false},      {"tai_clock", false},
      {"gps_clock", false},      {"gettimeofday", false},
      {"clock_gettime", false},  {"timespec_get", false},
      {"localtime", false},      {"localtime_r", false},
      {"gmtime", false},         {"gmtime_r", false},
      {"mktime", false},         {"time", true},
      {"random_device", false},  {"rand", true},
      {"srand", true},           {"rand_r", true},
      {"random", true},          {"drand48", false},
      {"erand48", false},        {"lrand48", false},
      {"nrand48", false},        {"mrand48", false},
      {"jrand48", false},        {"random_shuffle", false},
  };
  return kSources;
}

/// Files sanctioned to touch the primitives directly: the seeded RNG module
/// and the harness's grid runner (mirrors the syntactic rules' exemptions).
/// Calls *from* these files are not reported; functions *defined* in them
/// still taint their callers.
bool TaintExemptFile(const std::string& rel) {
  return StartsWith(rel, "src/common/rng") || rel == "src/harness/grid.h";
}

/// The primitive directly used in [begin, end), or "" when none.
std::string DirectSourceIn(const std::vector<Token>& t, size_t begin,
                           size_t end) {
  for (size_t j = begin; j < end; ++j) {
    if (!t[j].ident) continue;
    for (const TaintSource& src : TaintSources()) {
      if (t[j].text != src.name) continue;
      if (src.call_only) {
        if (j + 1 >= t.size() || t[j + 1].text != "(") break;
        if (j > 0) {
          const Token& p = t[j - 1];
          if (p.text == "." || p.text == "->") break;  // member call
          if (p.ident) {
            // `long time(...)` declares; `return time(...)` calls.
            static const std::set<std::string_view> kStmt = {
                "return", "co_return", "co_yield", "co_await",
                "throw",  "else",      "do",       "case"};
            if (!kStmt.count(p.text)) break;
          }
        }
      }
      return std::string(src.name);
    }
  }
  return "";
}

}  // namespace

void CheckDeterminismTaint(const InterprocContext& ctx,
                           std::vector<Diagnostic>* out) {
  const std::vector<AnalyzedFile>& files = *ctx.files;
  const CallGraph& cg = ctx.cg;
  const size_t n = cg.functions.size();

  // Direct sources, then the taint fixpoint over call edges with a witness
  // (the callee that carried the taint) for chain reconstruction.
  std::vector<std::string> direct(n);
  std::vector<bool> tainted(n, false);
  std::vector<int> witness(n, -1);
  for (size_t fi = 0; fi < n; ++fi) {
    const CgFunction& f = cg.functions[fi];
    const AnalyzedFile& af = files[static_cast<size_t>(f.file)];
    direct[fi] = DirectSourceIn(af.file->tokens, f.fn->body_begin + 1,
                                f.fn->body_end);
    tainted[fi] = !direct[fi].empty();
  }
  bool changed = true;
  while (changed) {
    changed = false;
    for (size_t fi = 0; fi < n; ++fi) {
      if (tainted[fi]) continue;
      for (const CallSite& site : cg.functions[fi].calls) {
        for (int target : site.targets) {
          if (tainted[static_cast<size_t>(target)]) {
            tainted[fi] = true;
            witness[fi] = target;
            changed = true;
            break;
          }
        }
        if (tainted[fi]) break;
      }
    }
  }

  auto chain_of = [&](int id) {
    std::string chain = cg.functions[static_cast<size_t>(id)].Qualified();
    int cur = id;
    while (direct[static_cast<size_t>(cur)].empty() &&
           witness[static_cast<size_t>(cur)] >= 0) {
      cur = witness[static_cast<size_t>(cur)];
      chain += " -> " + cg.functions[static_cast<size_t>(cur)].Qualified();
    }
    return std::make_pair(chain, direct[static_cast<size_t>(cur)]);
  };

  std::set<std::string> seen;
  for (size_t fi = 0; fi < n; ++fi) {
    const CgFunction& f = cg.functions[fi];
    const AnalyzedFile& af = files[static_cast<size_t>(f.file)];
    if (TaintExemptFile(af.file->rel)) continue;
    for (const CallSite& site : f.calls) {
      int hit = -1;
      for (int target : site.targets) {
        if (tainted[static_cast<size_t>(target)]) {
          hit = target;
          break;
        }
      }
      if (hit < 0) continue;
      if (!seen.insert(af.file->rel + ":" + std::to_string(site.line)).second)
        continue;
      auto [chain, primitive] = chain_of(hit);
      out->push_back(
          {af.file->rel, site.line, kRuleDetTaint,
           "call to '" + site.name + "' reaches nondeterministic '" +
               primitive + "' (" + chain +
               "); derive time from sim::Simulation::Now() or draw from a "
               "seeded clouddb::Rng"});
    }
  }
}

}  // namespace clouddb::lint
