#include "tools/lint/concurrency.h"

#include <algorithm>
#include <set>
#include <sstream>

#include "tools/lint/lexer.h"

namespace probcon::lint {
namespace {

constexpr const char* kRuleLockOrder = "probcon-lock-order";
constexpr const char* kRuleBlocking = "probcon-blocking-under-lock";
constexpr const char* kRuleGuarded = "probcon-guarded-field";

// Operations that block for an unbounded (or scheduler-dependent) time. Holding any lock
// across one of these stalls every thread contending on that lock — and when the blocked
// operation itself needs a lock to make progress (ParallelFor help-loops, cv notifiers),
// it deadlocks. Names are matched against the last component of the callee.
//
// Deliberately absent: write/read/close (the reactor's WakeLocked writes one byte to a
// nonblocking eventfd under the mailbox mutex — bounded, and the wake protocol requires
// it), and the cv wait family, which is handled structurally (is_cv_wait) so that waiting
// on one's OWN mutex — the correct pattern — is exempt.
const std::set<std::string>& BlockingSeeds() {
  static const std::set<std::string> kSeeds = {
      "join",        "sleep_for",   "sleep_until", "poll",           "epoll_wait",
      "select",      "accept",      "connect",     "recv",           "send",
      "Join",        "ParallelFor", "ParallelReduce", "RunTrials",   "TryRunOneTask",
      "RoundTripBatch",
  };
  return kSeeds;
}

bool IsPlaceholder(const std::string& id) { return id.find("::?") != std::string::npos; }

std::string LastName(const std::string& qualified) {
  const size_t pos = qualified.rfind("::");
  return pos == std::string::npos ? qualified : qualified.substr(pos + 2);
}

std::string OwnerName(const std::string& qualified) {
  const size_t pos = qualified.rfind("::");
  return pos == std::string::npos ? "" : qualified.substr(0, pos);
}

std::string JoinIds(const std::vector<std::string>& ids) {
  std::string out;
  for (size_t i = 0; i < ids.size(); ++i) {
    out += (i ? ", " : "") + ids[i];
  }
  return out;
}

// Resolves a declared-order argument ("other" of ACQUIRED_BEFORE/AFTER) in the context of
// the annotating class: a bare member name binds to the nearest enclosing class declaring
// a mutex member of that name; qualified names pass through (best-effort class resolution).
std::string ResolveDeclaredArg(const ClassTable& classes, const std::string& owner,
                               const std::string& raw) {
  if (raw.find("::") == std::string::npos && raw.find('.') == std::string::npos &&
      raw.find("->") == std::string::npos) {
    std::string ctx = owner;
    while (!ctx.empty()) {
      const ClassInfo* ci = classes.Find(ctx);
      if (ci != nullptr && ci->mutex_members.count(raw) > 0) {
        return ctx + "::" + raw;
      }
      const size_t pos = ctx.rfind("::");
      ctx = pos == std::string::npos ? "" : ctx.substr(0, pos);
    }
    return owner + "::" + raw;
  }
  const size_t pos = raw.rfind("::");
  if (pos != std::string::npos) {
    if (const ClassInfo* ci = classes.Resolve(raw.substr(0, pos), owner)) {
      return ci->name + "::" + raw.substr(pos + 2);
    }
  }
  return raw;
}

class Analyzer {
 public:
  explicit Analyzer(const ConcurrencyModel& model) : m_(model) {
    for (const auto& [name, fn] : m_.functions) {
      if (name.find("<lambda") != std::string::npos) {
        continue;
      }
      by_last_[LastName(name)].push_back(&fn);
    }
    CollectEdges();
  }

  std::vector<LockGraphEdge> Edges() const { return edges_; }
  std::vector<Finding> Findings();

 private:
  const FunctionInfo* ResolveCallee(const std::string& callee) {
    if (callee.empty() || callee.find("<lambda") != std::string::npos) {
      return nullptr;
    }
    std::string name = callee;
    if (name.rfind("?::", 0) != 0) {
      auto it = m_.functions.find(name);
      if (it != m_.functions.end()) {
        return &it->second;
      }
    }
    // Fall back to a UNIQUE match on the unqualified name; ambiguity means silence
    // (a linter must not guess between overriders).
    auto jt = by_last_.find(LastName(name));
    if (jt != by_last_.end() && jt->second.size() == 1) {
      return jt->second[0];
    }
    return nullptr;
  }

  // Every non-placeholder mutex id `f` (or any resolvable callee, transitively) acquires.
  const std::set<std::string>& Acquires(const FunctionInfo* f) {
    static const std::set<std::string> kEmpty;
    auto it = acquires_memo_.find(f);
    if (it != acquires_memo_.end()) {
      return it->second;
    }
    if (acquires_in_progress_.count(f) > 0) {
      return kEmpty;  // recursion: the fixpoint contribution of a cycle is already counted
    }
    acquires_in_progress_.insert(f);
    std::set<std::string> acc;
    for (const LockSite& site : f->acquires) {
      if (!IsPlaceholder(site.mutex_id)) {
        acc.insert(site.mutex_id);
      }
    }
    for (const CallSite& call : f->calls) {
      const FunctionInfo* g = ResolveCallee(call.callee);
      if (g != nullptr && g != f) {
        const std::set<std::string>& sub = Acquires(g);
        acc.insert(sub.begin(), sub.end());
      }
    }
    acquires_in_progress_.erase(f);
    return acquires_memo_.emplace(f, std::move(acc)).first->second;
  }

  // True when a call site blocks in its own frame. `for_transitive` drops the clean
  // cv-wait case: a function that waits correctly on its own mutex does not make its
  // CALLERS blocking (the classic WaitLocked helper), but a wait that already violates R7
  // locally propagates.
  bool LocallyBlocking(const CallSite& call, bool for_transitive) {
    if (call.is_cv_wait) {
      return for_transitive ? !UnexemptedHeld(call).empty() : true;
    }
    return BlockingSeeds().count(LastName(call.callee)) > 0;
  }

  // Held mutexes a cv wait does NOT release: everything except the wait's own mutex.
  // When the released mutex is syntactically unresolvable and exactly one lock is held,
  // assume it is that one (the overwhelmingly common correct pattern).
  std::vector<std::string> UnexemptedHeld(const CallSite& call) {
    std::string exempt = call.cv_wait_mutex;
    if (exempt.empty() && call.held.size() == 1) {
      exempt = call.held[0];
    }
    std::vector<std::string> rest;
    for (const std::string& h : call.held) {
      if (h != exempt) {
        rest.push_back(h);
      }
    }
    return rest;
  }

  struct BlockInfo {
    bool blocking = false;
    std::string why;  // witness chain: "RunChunks -> blocking call 'wait' (src/...:42)"
  };

  const BlockInfo& Blocking(const FunctionInfo* f) {
    static const BlockInfo kNot;
    auto it = blocking_memo_.find(f);
    if (it != blocking_memo_.end()) {
      return it->second;
    }
    if (blocking_in_progress_.count(f) > 0) {
      return kNot;
    }
    blocking_in_progress_.insert(f);
    BlockInfo info;
    for (const CallSite& call : f->calls) {
      if (LocallyBlocking(call, /*for_transitive=*/true)) {
        std::ostringstream why;
        why << "'" << LastName(call.callee) << "' at " << f->path << ":" << call.line;
        info.blocking = true;
        info.why = why.str();
        break;
      }
      const FunctionInfo* g = ResolveCallee(call.callee);
      if (g != nullptr && g != f) {
        const BlockInfo& sub = Blocking(g);
        if (sub.blocking) {
          info.blocking = true;
          info.why = g->name + " -> " + sub.why;
          break;
        }
      }
    }
    blocking_in_progress_.erase(f);
    return blocking_memo_.emplace(f, std::move(info)).first->second;
  }

  void AddEdge(const std::string& from, const std::string& to, const std::string& path,
               int line, const char* kind) {
    edges_.push_back(LockGraphEdge{from, to, path, line, kind});
  }

  void CollectEdges() {
    for (const auto& [name, fn] : m_.functions) {
      for (const LockSite& site : fn.acquires) {
        if (IsPlaceholder(site.mutex_id)) {
          continue;
        }
        for (const std::string& h : site.held) {
          if (!IsPlaceholder(h)) {
            AddEdge(h, site.mutex_id, fn.path, site.line, "local");
          }
        }
      }
      for (const CallSite& call : fn.calls) {
        if (call.held.empty()) {
          continue;
        }
        const FunctionInfo* g = ResolveCallee(call.callee);
        if (g == nullptr || g == &fn) {
          continue;
        }
        for (const std::string& a : Acquires(g)) {
          for (const std::string& h : call.held) {
            if (!IsPlaceholder(h)) {
              AddEdge(h, a, fn.path, call.line, "call");
            }
          }
        }
      }
    }
    for (const auto& [cname, ci] : m_.classes.classes()) {
      for (const ClassInfo::DeclaredEdge& d : ci.declared_order) {
        const std::string member = ResolveDeclaredArg(m_.classes, cname, d.member);
        const std::string other = ResolveDeclaredArg(m_.classes, cname, d.other);
        if (d.member_first) {
          AddEdge(member, other, d.path, d.line, "declared");
        } else {
          AddEdge(other, member, d.path, d.line, "declared");
        }
      }
    }
    std::sort(edges_.begin(), edges_.end(), [](const LockGraphEdge& a, const LockGraphEdge& b) {
      return std::tie(a.from, a.to, a.path, a.line, a.kind) <
             std::tie(b.from, b.to, b.path, b.line, b.kind);
    });
    edges_.erase(std::unique(edges_.begin(), edges_.end(),
                             [](const LockGraphEdge& a, const LockGraphEdge& b) {
                               return std::tie(a.from, a.to, a.path, a.line, a.kind) ==
                                      std::tie(b.from, b.to, b.path, b.line, b.kind);
                             }),
                 edges_.end());
  }

  void LockOrderFindings(std::vector<Finding>& out);
  void BlockingFindings(std::vector<Finding>& out);
  void GuardedFieldFindings(std::vector<Finding>& out);

  const ConcurrencyModel& m_;
  std::map<std::string, std::vector<const FunctionInfo*>> by_last_;
  std::vector<LockGraphEdge> edges_;
  std::map<const FunctionInfo*, std::set<std::string>> acquires_memo_;
  std::set<const FunctionInfo*> acquires_in_progress_;
  std::map<const FunctionInfo*, BlockInfo> blocking_memo_;
  std::set<const FunctionInfo*> blocking_in_progress_;
};

// ---- R6: lock-order cycles --------------------------------------------------------------

void Analyzer::LockOrderFindings(std::vector<Finding>& out) {
  // Collapse witnesses: one representative edge per (from, to) — edges_ is sorted, so the
  // first witness is the lexicographically smallest.
  std::map<std::string, std::map<std::string, const LockGraphEdge*>> adj;
  for (const LockGraphEdge& e : edges_) {
    auto& slot = adj[e.from][e.to];
    if (slot == nullptr) {
      slot = &e;
    }
  }

  // Self-edges: re-entrant acquisition (directly, or a callee re-locking a caller-held
  // mutex). Non-recursive mutexes deadlock on the spot.
  for (const auto& [from, tos] : adj) {
    auto it = tos.find(from);
    if (it == tos.end()) {
      continue;
    }
    const LockGraphEdge* e = it->second;
    Finding f;
    f.rule = kRuleLockOrder;
    f.severity = "error";
    f.path = e->path;
    f.line = e->line;
    f.col = 1;
    f.token = from;
    f.message = "re-entrant acquisition of '" + from +
                "' (already held here" + (e->kind == std::string("call") ? " and re-locked inside the callee" : "") +
                "); std::mutex deadlocks immediately";
    f.edges.push_back(FindingEdge{e->from, e->to, e->path, e->line});
    out.push_back(std::move(f));
  }

  // Tarjan SCC over the collapsed graph (ignoring self-loops, already reported).
  std::vector<std::string> nodes;
  for (const auto& [from, tos] : adj) {
    nodes.push_back(from);
    for (const auto& [to, e] : tos) {
      nodes.push_back(to);
    }
  }
  std::sort(nodes.begin(), nodes.end());
  nodes.erase(std::unique(nodes.begin(), nodes.end()), nodes.end());

  std::map<std::string, int> index;
  std::map<std::string, int> low;
  std::map<std::string, bool> on_stack;
  std::vector<std::string> stack;
  std::vector<std::vector<std::string>> sccs;
  int counter = 0;

  // Iterative Tarjan (explicit frames: node + neighbor iterator position).
  struct Frame {
    std::string node;
    std::vector<std::string> succ;
    size_t next = 0;
  };
  for (const std::string& start : nodes) {
    if (index.count(start) > 0) {
      continue;
    }
    std::vector<Frame> frames;
    auto push_node = [&](const std::string& v) {
      index[v] = low[v] = counter++;
      stack.push_back(v);
      on_stack[v] = true;
      Frame fr;
      fr.node = v;
      auto it = adj.find(v);
      if (it != adj.end()) {
        for (const auto& [to, e] : it->second) {
          if (to != v) {
            fr.succ.push_back(to);
          }
        }
      }
      frames.push_back(std::move(fr));
    };
    push_node(start);
    while (!frames.empty()) {
      Frame& fr = frames.back();
      if (fr.next < fr.succ.size()) {
        const std::string& w = fr.succ[fr.next++];
        if (index.count(w) == 0) {
          push_node(w);
        } else if (on_stack[w]) {
          low[fr.node] = std::min(low[fr.node], index[w]);
        }
      } else {
        const std::string v = fr.node;
        frames.pop_back();
        if (!frames.empty()) {
          low[frames.back().node] = std::min(low[frames.back().node], low[v]);
        }
        if (low[v] == index[v]) {
          std::vector<std::string> scc;
          while (true) {
            const std::string w = stack.back();
            stack.pop_back();
            on_stack[w] = false;
            scc.push_back(w);
            if (w == v) {
              break;
            }
          }
          if (scc.size() > 1) {
            std::sort(scc.begin(), scc.end());
            sccs.push_back(std::move(scc));
          }
        }
      }
    }
  }

  for (const std::vector<std::string>& scc : sccs) {
    const std::set<std::string> in_scc(scc.begin(), scc.end());
    // Readable cycle: BFS from the smallest node back to itself inside the SCC.
    const std::string& start = scc[0];
    std::map<std::string, std::string> parent;
    std::vector<std::string> queue = {start};
    std::vector<std::string> cycle;
    for (size_t qi = 0; qi < queue.size() && cycle.empty(); ++qi) {
      const std::string u = queue[qi];
      auto it = adj.find(u);
      if (it == adj.end()) {
        continue;
      }
      for (const auto& [v, e] : it->second) {
        if (in_scc.count(v) == 0 || v == u) {
          continue;
        }
        if (v == start) {
          cycle = {start};
          std::string w = u;
          std::vector<std::string> back;
          while (w != start) {
            back.push_back(w);
            w = parent[w];
          }
          for (auto rit = back.rbegin(); rit != back.rend(); ++rit) {
            cycle.push_back(*rit);
          }
          cycle.push_back(start);
          break;
        }
        if (parent.count(v) == 0) {
          parent[v] = u;
          queue.push_back(v);
        }
      }
    }

    // All witness edges inside the SCC, sorted; the first anchors the finding.
    std::vector<const LockGraphEdge*> witness;
    for (const std::string& u : scc) {
      auto it = adj.find(u);
      if (it == adj.end()) {
        continue;
      }
      for (const auto& [v, e] : it->second) {
        if (v != u && in_scc.count(v) > 0) {
          witness.push_back(e);
        }
      }
    }
    std::sort(witness.begin(), witness.end(),
              [](const LockGraphEdge* a, const LockGraphEdge* b) {
                return std::tie(a->path, a->line, a->from, a->to) <
                       std::tie(b->path, b->line, b->from, b->to);
              });

    Finding f;
    f.rule = kRuleLockOrder;
    f.severity = "error";
    if (!witness.empty()) {
      f.path = witness[0]->path;
      f.line = witness[0]->line;
      f.col = 1;
    }
    std::string token;
    for (const std::string& node : scc) {
      token += (token.empty() ? "" : "|") + node;
    }
    f.token = token;
    std::ostringstream msg;
    msg << "lock-order cycle: ";
    for (size_t i = 0; i < cycle.size(); ++i) {
      msg << (i ? " -> " : "") << cycle[i];
    }
    msg << "; two threads taking these locks in opposite order deadlock. Witnesses:";
    for (const LockGraphEdge* e : witness) {
      msg << " " << e->from << "->" << e->to << " (" << e->kind << " " << e->path << ":"
          << e->line << ")";
      f.edges.push_back(FindingEdge{e->from, e->to, e->path, e->line});
    }
    msg << ". Fix: pick one order (declare it with PROBCON_ACQUIRED_BEFORE) or drop a lock "
           "before taking the next.";
    f.message = msg.str();
    out.push_back(std::move(f));
  }
}

// ---- R7: blocking under a held lock -----------------------------------------------------

void Analyzer::BlockingFindings(std::vector<Finding>& out) {
  for (const auto& [name, fn] : m_.functions) {
    for (const CallSite& call : fn.calls) {
      if (call.held.empty()) {
        continue;
      }
      Finding f;
      f.rule = kRuleBlocking;
      f.severity = "warning";
      f.path = fn.path;
      f.line = call.line;
      f.col = call.col;
      if (call.is_cv_wait) {
        const std::vector<std::string> rest = UnexemptedHeld(call);
        if (rest.empty()) {
          continue;  // waiting on one's own mutex is THE correct cv pattern
        }
        f.token = LastName(call.callee);
        f.message =
            "condition-variable wait releases only " +
            (call.cv_wait_mutex.empty() ? std::string("its own mutex") : "'" + call.cv_wait_mutex + "'") +
            " but " + JoinIds(rest) +
            " stays held across the wait; a notifier that needs that lock deadlocks. Fix: "
            "drop the outer lock before waiting";
        out.push_back(std::move(f));
        continue;
      }
      const std::string last = LastName(call.callee);
      if (BlockingSeeds().count(last) > 0) {
        f.token = last;
        f.message = "blocking call '" + last + "' while holding " + JoinIds(call.held) +
                    "; anything contending on that lock stalls for the full blocking "
                    "duration (and deadlocks if the blocked work needs it). Fix: release "
                    "the lock first";
        out.push_back(std::move(f));
        continue;
      }
      const FunctionInfo* g = ResolveCallee(call.callee);
      if (g != nullptr && g != &fn) {
        const BlockInfo& sub = Blocking(g);
        if (sub.blocking) {
          f.token = last;
          f.message = "call to '" + g->name + "' may block (" + g->name + " -> " + sub.why +
                      ") while holding " + JoinIds(call.held) +
                      "; release the lock before calling into blocking code";
          out.push_back(std::move(f));
        }
      }
    }
  }
}

// ---- R8: guarded fields touched without their mutex -------------------------------------

void Analyzer::GuardedFieldFindings(std::vector<Finding>& out) {
  for (const auto& [name, fn] : m_.functions) {
    for (const FieldUse& use : fn.field_uses) {
      if (use.held_ok) {
        continue;
      }
      // Constructors/destructors of the owning class run before/after any sharing;
      // clang's analysis exempts them and so do we.
      const std::string owner = OwnerName(use.field_id);
      const std::string fn_last = LastName(fn.name);
      if (fn.class_name == owner &&
          (fn_last == LastName(owner) || fn_last == "~" + LastName(owner))) {
        continue;
      }
      Finding f;
      f.rule = kRuleGuarded;
      f.severity = "warning";
      f.path = fn.path;
      f.line = use.line;
      f.col = use.col;
      f.token = LastName(use.field_id);
      f.message = "'" + use.field_id + "' is PROBCON_GUARDED_BY '" + use.mutex_id +
                  "' but the mutex is not held here" +
                  (use.held.empty() ? std::string(" (no locks held)")
                                    : " (held: " + JoinIds(use.held) + ")") +
                  "; lock it, or annotate the function PROBCON_REQUIRES if callers hold it";
      out.push_back(std::move(f));
    }
  }
}

std::vector<Finding> Analyzer::Findings() {
  std::vector<Finding> out;
  LockOrderFindings(out);
  BlockingFindings(out);
  GuardedFieldFindings(out);
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

}  // namespace

ConcurrencyModel BuildModel(const std::vector<SourceFile>& files) {
  ConcurrencyModel model;
  std::vector<std::pair<std::string, std::vector<Token>>> lexed;
  lexed.reserve(files.size());
  for (const SourceFile& file : files) {
    lexed.emplace_back(file.path, Lex(file.content));
  }
  for (auto& [path, tokens] : lexed) {
    for (ClassInfo& ci : CollectClasses(tokens)) {
      for (ClassInfo::DeclaredEdge& edge : ci.declared_order) {
        edge.path = path;
      }
      model.classes.Merge(ci);
    }
  }
  model.classes.Finalize();
  for (const auto& [path, tokens] : lexed) {
    for (FunctionInfo& fn : CollectFunctions(path, tokens, model.classes)) {
      auto [it, inserted] = model.functions.emplace(fn.name, fn);
      if (!inserted) {
        // Overload / redefinition: merge body events (conservative union of behavior).
        FunctionInfo& dst = it->second;
        dst.requires_held.insert(dst.requires_held.end(), fn.requires_held.begin(),
                                 fn.requires_held.end());
        dst.acquires.insert(dst.acquires.end(), fn.acquires.begin(), fn.acquires.end());
        dst.calls.insert(dst.calls.end(), fn.calls.begin(), fn.calls.end());
        dst.field_uses.insert(dst.field_uses.end(), fn.field_uses.begin(),
                              fn.field_uses.end());
      }
    }
  }
  // PROBCON_REQUIRES may live only on a header declaration while the body was parsed from
  // the .cc definition; fold the merged entry locks into every recorded site.
  for (auto& [name, fn] : model.functions) {
    if (fn.requires_held.empty()) {
      continue;
    }
    auto add_held = [&fn](std::vector<std::string>& held) {
      for (const std::string& r : fn.requires_held) {
        if (std::find(held.begin(), held.end(), r) == held.end()) {
          held.push_back(r);
        }
      }
    };
    for (LockSite& site : fn.acquires) {
      add_held(site.held);
    }
    for (CallSite& call : fn.calls) {
      add_held(call.held);
    }
    for (FieldUse& use : fn.field_uses) {
      add_held(use.held);
      use.held_ok = use.held_ok || std::find(use.held.begin(), use.held.end(),
                                             use.mutex_id) != use.held.end();
    }
  }
  return model;
}

std::vector<LockGraphEdge> BuildLockGraph(const ConcurrencyModel& model) {
  return Analyzer(model).Edges();
}

std::vector<Finding> AnalyzeConcurrency(const ConcurrencyModel& model) {
  return Analyzer(model).Findings();
}

std::string DumpLockGraph(const ConcurrencyModel& model, bool json) {
  const std::vector<LockGraphEdge> edges = BuildLockGraph(model);
  std::set<std::string> nodes;
  for (const LockGraphEdge& e : edges) {
    nodes.insert(e.from);
    nodes.insert(e.to);
  }
  for (const auto& [name, fn] : model.functions) {
    for (const LockSite& site : fn.acquires) {
      if (!IsPlaceholder(site.mutex_id)) {
        nodes.insert(site.mutex_id);
      }
    }
  }
  std::ostringstream os;
  if (json) {
    auto escape = [](const std::string& s) {
      std::string out;
      for (const char c : s) {
        if (c == '"' || c == '\\') {
          out += '\\';
        }
        out += c;
      }
      return out;
    };
    os << "{\n  \"nodes\": [";
    size_t i = 0;
    for (const std::string& n : nodes) {
      os << (i++ == 0 ? "\n" : ",\n") << "    \"" << escape(n) << "\"";
    }
    os << (nodes.empty() ? "]" : "\n  ]") << ",\n  \"edges\": [";
    for (size_t j = 0; j < edges.size(); ++j) {
      const LockGraphEdge& e = edges[j];
      os << (j == 0 ? "\n" : ",\n") << "    {\"from\": \"" << escape(e.from)
         << "\", \"to\": \"" << escape(e.to) << "\", \"kind\": \"" << escape(e.kind)
         << "\", \"path\": \"" << escape(e.path) << "\", \"line\": " << e.line << "}";
    }
    os << (edges.empty() ? "]" : "\n  ]") << ",\n  \"node_count\": " << nodes.size()
       << ",\n  \"edge_count\": " << edges.size() << "\n}\n";
  } else {
    os << "lock-order graph: " << nodes.size() << " mutex" << (nodes.size() == 1 ? "" : "es")
       << ", " << edges.size() << " edge" << (edges.size() == 1 ? "" : "s") << "\n";
    for (const std::string& n : nodes) {
      os << "  node " << n << "\n";
    }
    for (const LockGraphEdge& e : edges) {
      os << "  " << e.from << " -> " << e.to << "  [" << e.kind << "]  " << e.path << ":"
         << e.line << "\n";
    }
  }
  return os.str();
}

}  // namespace probcon::lint
