#include "src/elab/elaborator.h"

#include <cassert>
#include <optional>

#include "src/sema/const_eval.h"
#include "src/sim/value.h"

namespace zeus {
namespace elab_detail {

// Where a basic signal sits relative to the component being elaborated.
// A resolved signal path is a concatenation of segments, each of which is a
// set of mutually-exclusive guarded alternatives (one alternative per
// possible value of a NUM index; exactly one alternative otherwise).

using ast::Expr;
using ast::ExprKind;
using ast::ParamMode;
using ast::Stmt;
using ast::StmtKind;

enum class RoleCtx : uint8_t { Local, Formal, Child, Builtin };

struct Alt {
  Obj* obj = nullptr;
  NetId guard = kNoNet;
  RoleCtx ctx = RoleCtx::Local;
  ParamMode mode = ParamMode::InOut;
};

struct Segment {
  std::vector<Alt> alts;
};

using Path = std::vector<Segment>;

/// One bit of an evaluated rvalue.
struct RBit {
  NetId net = kNoNet;
  Logic cval = Logic::Undef;
  bool isConst = false;
  bool empty = false;     ///< "*" — empty assignment
  bool flexible = false;  ///< bare "*": stretches to the needed width
};

struct RVal {
  std::vector<RBit> bits;
};

/// One bit of an assignable lvalue.
struct LBit {
  NetId net = kNoNet;
  BasicKind kind = BasicKind::Boolean;
  ParamMode mode = ParamMode::InOut;
  RoleCtx ctx = RoleCtx::Local;
  NetId guard = kNoNet;
  bool star = false;      ///< "*" placeholder (skip)
  bool flexible = false;  ///< bare "*"
};

struct WithFrame {
  Alt base;
};

struct Ctx {
  InstanceData* inst = nullptr;
  Env* env = nullptr;
  NetId guard = kNoNet;
  std::vector<WithFrame> withStack;
};

class Impl {
 public:
  Impl(DiagnosticEngine& diags, TypeTable& tt, Elaborator::Options opts)
      : diags_(diags),
        tt_(tt),
        opts_(opts),
        ceval_(diags),
        scratchDiags_(diags.sourceManager()),
        silentEval_(scratchDiags_) {}

  std::unique_ptr<Design> run(const ast::Program& program, Env& rootEnv,
                              const std::string& topName);

 private:
  // ---- error helper ----
  void error(Diag code, SourceLoc loc, std::string msg) {
    diags_.error(code, loc, std::move(msg));
  }

  // ---- object construction ----
  Obj makeObj(const Type* t, const std::string& path, bool isFormalNet,
              SourceLoc loc);
  void materialise(Obj& obj, SourceLoc loc);
  void elaborateBody(InstanceData& inst);
  void checkFormalWireModes(const Field& f, const std::string& instPath);

  // ---- statements ----
  void execStmtList(Ctx& ctx, const std::vector<ast::StmtPtr>& stmts);
  void execStmt(Ctx& ctx, const Stmt& s);
  void execAssign(Ctx& ctx, const Stmt& s);
  void execAlias(Ctx& ctx, const Stmt& s);
  void execConnection(Ctx& ctx, const Stmt& s);
  void execIf(Ctx& ctx, const Stmt& s);
  void execFor(Ctx& ctx, const Stmt& s);
  void execWhen(Ctx& ctx, const Stmt& s);
  void execWith(Ctx& ctx, const Stmt& s);
  void execResult(Ctx& ctx, const Stmt& s);
  void execSequential(Ctx& ctx, const Stmt& s);

  // ---- layout replacements (§6.4) ----
  void execLayoutReplacements(Ctx& ctx,
                              const std::vector<ast::LayoutStmtPtr>& stmts);

  // ---- paths ----
  std::optional<Path> resolvePath(Ctx& ctx, const Expr& e, bool quiet);
  bool selectInto(std::vector<Obj*>& out, Obj* o, const std::string& field,
                  ParamMode& mode, RoleCtx& ctx, SourceLoc loc, bool quiet);
  void flattenObj(Obj* o, ParamMode inherited, RoleCtx ctx, NetId guard,
                  std::vector<LBit>& out, SourceLoc loc);
  std::vector<LBit> flattenPathL(const Path& p, SourceLoc loc);
  RVal flattenPathR(const Path& p, SourceLoc loc);

  // ---- expressions ----
  std::optional<RVal> evalRVal(Ctx& ctx, const Expr& e);
  std::optional<RVal> evalCall(Ctx& ctx, const Expr& e);
  std::optional<std::vector<LBit>> evalLValExpr(Ctx& ctx, const Expr& e);
  std::optional<NetId> evalCond(Ctx& ctx, const Expr& e);
  std::optional<RVal> tryConstRVal(Ctx& ctx, const Expr& e);

  // ---- assignment machinery ----
  void assignBit(const LBit& l, const RBit& r, NetId stmtGuard,
                 SourceLoc loc);
  void aliasBit(const LBit& a, const LBit& b, NetId guard, SourceLoc loc);
  bool adaptR(RVal& v, size_t need, SourceLoc loc);
  bool adaptL(std::vector<LBit>& v, size_t need, SourceLoc loc);

  // ---- netlist helpers ----
  NetId constNet(Logic v);
  NetId rbitNet(const RBit& b);
  NetId freshNet(const char* tag, BasicKind kind, SourceLoc loc);
  NetId gate2(NodeOp op, NetId a, NetId b, SourceLoc loc);
  NetId gate1(NodeOp op, NetId a, SourceLoc loc);
  NetId andGuard(NetId a, NetId b, SourceLoc loc);
  NetId equalConst(const std::vector<NetId>& addr, int64_t value,
                   SourceLoc loc);
  void markTouched(NetId n) { d_->netlist.net(n).touchedByParent = true; }
  void logAssign(NetId n) {
    if (assignLog_) assignLog_->push_back(n);
  }

  // ---- function calls ----
  std::optional<RVal> callUserFunction(Ctx& ctx, const Expr& e,
                                       const Type* fnType);
  std::optional<RVal> synthArith(Ctx& ctx, const Expr& e);

  // ---- post passes ----
  void checkUnusedPorts(const InstanceData& inst);

  DiagnosticEngine& diags_;
  TypeTable& tt_;
  Elaborator::Options opts_;
  ConstEval ceval_;
  DiagnosticEngine scratchDiags_;
  ConstEval silentEval_;

  // ---- resource budgets ----
  /// False once any budget is breached; elaboration then unwinds without
  /// generating further hardware (the breach itself was diagnosed).
  bool budgetOk() const { return !budgetBreached_; }
  /// Checks the net budget before `extra` more nets appear; reports once.
  bool reserveNets(size_t extra, SourceLoc loc);
  /// Accounts one unit of elaboration work (statement / array element);
  /// false once Limits.maxElabSteps is spent.
  bool takeStep(SourceLoc loc);
  void noteUsage();

  std::unique_ptr<Design> d_;
  Obj clkObj_;
  Obj rsetObj_;
  int depth_ = 0;
  size_t instances_ = 0;
  uint64_t steps_ = 0;
  bool budgetBreached_ = false;
  uint64_t callCounter_ = 0;
  NetId constNets_[4] = {kNoNet, kNoNet, kNoNet, kNoNet};
  std::vector<NetId>* assignLog_ = nullptr;
};

// ===========================================================================
// Object construction
// ===========================================================================

bool Impl::reserveNets(size_t extra, SourceLoc loc) {
  if (budgetBreached_) return false;
  size_t have = d_->netlist.netCount();
  size_t budget = opts_.limits.maxNets;
  if (extra > budget || have > budget - extra) {
    budgetBreached_ = true;
    error(Diag::NetBudgetExceeded, loc,
          "design needs more than " + std::to_string(budget) +
              " nets; raise Limits.maxNets or shrink the design");
  }
  return !budgetBreached_;
}

bool Impl::takeStep(SourceLoc loc) {
  if (budgetBreached_) return false;
  if (++steps_ > opts_.limits.maxElabSteps) {
    budgetBreached_ = true;
    error(Diag::ElabBudgetExceeded, loc,
          "elaboration exceeded " +
              std::to_string(opts_.limits.maxElabSteps) +
              " steps; is a FOR replication unbounded?");
  }
  return !budgetBreached_;
}

void Impl::noteUsage() {
  if (!opts_.usage) return;
  opts_.usage->instances = instances_;
  opts_.usage->nets = d_->netlist.netCount();
  opts_.usage->nodes = d_->netlist.nodeCount();
  opts_.usage->notePeak(opts_.usage->instanceDepthPeak, depth_);
}

Obj Impl::makeObj(const Type* t, const std::string& path, bool isFormalNet,
                  SourceLoc loc) {
  Obj o;
  o.type = t;
  if (!reserveNets(t->numBasic, loc)) {
    // Degrade to an inert record — the same shape as the virtual-signal
    // error path — so elaboration unwinds with diagnostics, not hardware.
    o.kind = ObjKind::Record;
    o.instPath = path;
    return o;
  }
  switch (t->kind) {
    case Type::Kind::Basic:
      if (t->basic == BasicKind::Virtual) {
        o.kind = ObjKind::Virtual;
        o.net = kNoNet;
        o.instPath = path;
        return o;
      }
      o.kind = ObjKind::Wire;
      o.net = d_->netlist.addNet(path, t->basic, loc);
      if (isFormalNet && t->basic == BasicKind::Boolean)
        d_->netlist.net(o.net).allowCond = true;  // exception 1 (§4.7)
      return o;
    case Type::Kind::Array:
      o.kind = ObjKind::Array;
      for (int64_t i = t->lo; i <= t->hi;) {
        // Step accounting bounds huge arrays whose elements carry no nets
        // (e.g. ARRAY[1..10^9] OF virtual) that the net budget cannot see.
        if (!takeStep(loc)) break;
        o.elems.push_back(makeObj(t->elem, path + "[" + std::to_string(i) +
                                               "]",
                                  isFormalNet, loc));
        if (i == t->hi) break;  // avoids ++i overflow at INT64_MAX
        ++i;
      }
      return o;
    case Type::Kind::Component:
      if (t->hasBody || t->builtin != BuiltinComponent::None) {
        o.kind = ObjKind::Instance;
        o.inst = nullptr;  // lazy
        o.instPath = path;
        return o;
      }
      // Record type: a bundle of named wires.
      o.kind = ObjKind::Record;
      for (const Field& f : t->fields) {
        o.elems.push_back(
            makeObj(f.type, path + "." + f.name, isFormalNet, loc));
      }
      return o;
  }
  return o;
}

void Impl::checkFormalWireModes(const Field& f, const std::string& instPath) {
  // §3.2: unstructured IN/OUT parameters must be boolean; INOUT parameters
  // of a basic type must be multiplex.  Applies to the wire parts only.
  if (f.type->kind == Type::Kind::Component &&
      (f.type->hasBody || f.type->builtin != BuiltinComponent::None)) {
    return;  // component-typed parameter: its own formals were checked
  }

  // "A substructure may not be at the same time an IN and OUT parameter":
  // an explicit nested mode must not contradict an inherited one.
  struct ModeWalk {
    Impl* self;
    const Field& f;
    const std::string& instPath;
    void go(const Type& t, ast::ParamMode inherited,
            const std::string& path) {
      if (t.kind == Type::Kind::Array) {
        if (t.elem) go(*t.elem, inherited, path);
        return;
      }
      if (t.kind != Type::Kind::Component) return;
      for (const Field& sub : t.fields) {
        if (sub.mode != ParamMode::InOut &&
            inherited != ParamMode::InOut && sub.mode != inherited) {
          self->error(Diag::SubstructureInAndOut, sub.loc,
                      "substructure '" + path + "." + sub.name + "' of '" +
                          instPath + "." + f.name +
                          "' cannot be both IN and OUT (§3.2)");
          continue;
        }
        ast::ParamMode eff =
            sub.mode != ParamMode::InOut ? sub.mode : inherited;
        if (sub.type) go(*sub.type, eff, path + "." + sub.name);
      }
    }
  };
  if (f.mode != ParamMode::InOut) {
    ModeWalk{this, f, instPath}.go(*f.type, f.mode, f.name);
  }
  std::vector<FlatBit> bits;
  tt_.flatten(*f.type, f.mode, "", bits);
  for (const FlatBit& b : bits) {
    if ((b.mode == ParamMode::In || b.mode == ParamMode::Out) &&
        b.kind != BasicKind::Boolean) {
      error(Diag::UnstructuredInOutMustBeBoolean, f.loc,
            "IN/OUT parameter bit '" + f.name + b.path + "' of '" + instPath +
                "' must be of type boolean");
    }
    if (b.mode == ParamMode::InOut && b.kind != BasicKind::Multiplex) {
      error(Diag::InOutBasicMustBeMultiplex, f.loc,
            "INOUT parameter bit '" + f.name + b.path + "' of '" + instPath +
                "' must be of type multiplex");
    }
  }
}

void Impl::materialise(Obj& obj, SourceLoc loc) {
  if (obj.kind == ObjKind::Virtual) {
    if (!obj.replacedType) {
      error(Diag::VirtualNotReplaced, loc,
            "virtual signal '" + obj.instPath +
                "' used before a replacement statement assigned it a type");
      // Degrade to an empty record so elaboration can continue.
      obj.kind = ObjKind::Record;
      obj.type = tt_.boolean();
      obj.elems.clear();
      return;
    }
    obj.type = obj.replacedType;
    if (obj.type->kind != Type::Kind::Component ||
        (!obj.type->hasBody && obj.type->builtin == BuiltinComponent::None)) {
      error(Diag::ReplacementOnNonVirtual, loc,
            "replacement type for '" + obj.instPath +
                "' must be a component type with a body");
      obj.kind = ObjKind::Record;
      obj.elems.clear();
      return;
    }
    obj.kind = ObjKind::Instance;
  }
  if (obj.kind != ObjKind::Instance || obj.inst) return;
  if (budgetBreached_) return;

  if (++depth_ > opts_.limits.maxInstanceDepth) {
    --depth_;
    error(Diag::RecursionTooDeep, loc,
          "component instantiation too deep at '" + obj.instPath +
              "' (recursive type without terminating WHEN guard?)");
    return;
  }
  if (opts_.usage)
    opts_.usage->notePeak(opts_.usage->instanceDepthPeak, depth_);
  if (++instances_ > opts_.limits.maxInstances) {
    --depth_;
    budgetBreached_ = true;
    error(Diag::InstanceBudgetExceeded, loc,
          "more than " + std::to_string(opts_.limits.maxInstances) +
              " component instances at '" + obj.instPath +
              "'; raise Limits.maxInstances or shrink the design");
    return;
  }

  // Assignments made while elaborating a child body belong to that body,
  // not to the statement that happened to touch the child first — keep
  // them out of the enclosing SEQUENTIAL group (§4.5: sequentiality is not
  // inherited by nested statements).
  std::vector<NetId>* savedLog = assignLog_;
  assignLog_ = nullptr;

  const Type* T = obj.type;
  obj.inst = std::make_unique<InstanceData>();
  InstanceData& inst = *obj.inst;
  inst.path = obj.instPath;
  inst.type = T;
  inst.loc = loc;

  if (T->builtin == BuiltinComponent::Reg) {
    Member in;
    in.isFormal = true;
    in.mode = ParamMode::In;
    in.obj = makeObj(tt_.boolean(), inst.path + ".in", true, loc);
    Member out;
    out.isFormal = true;
    out.mode = ParamMode::Out;
    out.obj = makeObj(tt_.boolean(), inst.path + ".out", true, loc);
    d_->netlist.net(out.obj.net).isRegOutput = true;
    d_->netlist.net(out.obj.net).uncondDrivers++;  // driven by the register
    d_->netlist.addNode(NodeOp::Reg, {in.obj.net}, out.obj.net, loc);
    inst.members.emplace("in", std::move(in));
    inst.members.emplace("out", std::move(out));
    inst.memberOrder = {"in", "out"};
    --depth_;
    assignLog_ = savedLog;
    return;
  }

  for (const Field& f : T->fields) {
    // Budget check BEFORE checkFormalWireModes: flattening a giant formal
    // would allocate its FlatBit list before makeObj ever saw the breach.
    if (!reserveNets(f.type->numBasic, f.loc)) break;
    checkFormalWireModes(f, inst.path);
    Member m;
    m.isFormal = true;
    m.mode = f.mode;
    m.loc = f.loc;
    m.obj = makeObj(f.type, inst.path + "." + f.name, true, f.loc);
    inst.members.emplace(f.name, std::move(m));
    inst.memberOrder.push_back(f.name);
  }

  if (T->isFunction() && reserveNets(T->resultType->numBasic, loc)) {
    std::vector<FlatBit> bits;
    tt_.flatten(*T->resultType, ParamMode::Out, "", bits);
    for (const FlatBit& b : bits) {
      NetId n = d_->netlist.addNet(inst.path + ".RESULT" + b.path, b.kind,
                                   loc);
      if (b.kind == BasicKind::Boolean)
        d_->netlist.net(n).allowCond = true;  // conditional RESULT (§3.2)
      inst.resultNets.push_back(n);
    }
  }

  if (T->hasBody && T->def) elaborateBody(inst);
  --depth_;
  assignLog_ = savedLog;
}

void Impl::elaborateBody(InstanceData& inst) {
  const ast::TypeExpr& def = *inst.type->def;
  Env* env = tt_.makeEnv(inst.type->bodyEnv);
  inst.env = env;

  Ctx ctx;
  ctx.inst = &inst;
  ctx.env = env;

  // Local declarations.
  for (const ast::DeclPtr& dp : def.decls) {
    const ast::Decl& decl = *dp;
    switch (decl.kind) {
      case ast::DeclKind::Const: {
        auto v = ceval_.eval(*decl.constValue, *env);
        if (v && !env->defineConst(decl.name, std::move(*v))) {
          error(Diag::DuplicateDeclaration, decl.loc,
                "duplicate declaration of '" + decl.name + "'");
        }
        break;
      }
      case ast::DeclKind::Type:
        if (!env->defineType(decl.name, TypeBinding{&decl, env})) {
          error(Diag::DuplicateDeclaration, decl.loc,
                "duplicate declaration of '" + decl.name + "'");
        }
        break;
      case ast::DeclKind::Signal: {
        const Type* t = tt_.resolve(*decl.type, *env);
        if (!t) break;
        if (t->isFunction()) {
          error(Diag::FunctionUsedAsSignal, decl.loc,
                "a function component type cannot be used in a signal "
                "declaration");
          break;
        }
        for (const std::string& name : decl.names) {
          if (inst.members.count(name) || env->definesLocally(name)) {
            error(Diag::DuplicateDeclaration, decl.loc,
                  "duplicate declaration of '" + name + "'");
            continue;
          }
          Member m;
          m.isFormal = false;
          m.loc = decl.loc;
          m.obj = makeObj(t, inst.path + "." + name, false, decl.loc);
          inst.members.emplace(name, std::move(m));
          inst.memberOrder.push_back(name);
        }
        break;
      }
    }
  }

  // Virtual-signal replacements from the layout blocks come before the
  // body statements (§6.4: the layout language is the only proper place
  // for replacements).
  execLayoutReplacements(ctx, def.headerLayout);
  execLayoutReplacements(ctx, def.bodyLayout);

  execStmtList(ctx, def.body);
}

// ===========================================================================
// Layout replacements
// ===========================================================================

void Impl::execLayoutReplacements(Ctx& ctx,
                                  const std::vector<ast::LayoutStmtPtr>&
                                      stmts) {
  for (const ast::LayoutStmtPtr& sp : stmts) {
    const ast::LayoutStmt& s = *sp;
    switch (s.kind) {
      case ast::LayoutStmtKind::Replacement: {
        auto path = resolvePath(ctx, *s.signal, /*quiet=*/false);
        if (!path) break;
        const Type* t = tt_.resolve(*s.replacementType, *ctx.env);
        if (!t) break;
        for (Segment& seg : *path) {
          for (Alt& alt : seg.alts) {
            if (alt.obj->kind != ObjKind::Virtual) {
              error(Diag::ReplacementOnNonVirtual, s.loc,
                    "replacement target is not a virtual signal");
              continue;
            }
            if (alt.obj->replacedType) {
              error(Diag::VirtualReplacedTwice, s.loc,
                    "virtual signal replaced more than once");
              continue;
            }
            alt.obj->replacedType = t;
          }
        }
        break;
      }
      case ast::LayoutStmtKind::For: {
        auto from = ceval_.evalNumber(*s.from, *ctx.env);
        auto to = ceval_.evalNumber(*s.to, *ctx.env);
        if (!from || !to) break;
        int64_t step = s.downto ? -1 : 1;
        for (int64_t i = *from; s.downto ? i >= *to : i <= *to; i += step) {
          Env* loopEnv = tt_.makeEnv(ctx.env);
          loopEnv->defineLoopVar(s.loopVar, i);
          Ctx inner = Ctx{ctx.inst, loopEnv, ctx.guard, ctx.withStack};
          execLayoutReplacements(inner, s.body);
        }
        break;
      }
      case ast::LayoutStmtKind::When: {
        bool taken = false;
        for (const ast::LayoutStmt::WhenArm& arm : s.whenArms) {
          auto c = ceval_.evalNumber(*arm.cond, *ctx.env);
          if (!c) return;
          if (*c != 0) {
            execLayoutReplacements(ctx, arm.body);
            taken = true;
            break;
          }
        }
        if (!taken) execLayoutReplacements(ctx, s.otherwiseBody);
        break;
      }
      case ast::LayoutStmtKind::Order:
      case ast::LayoutStmtKind::Boundary:
        execLayoutReplacements(ctx, s.body);
        break;
      case ast::LayoutStmtKind::With: {
        auto path = resolvePath(ctx, *s.withSignal, /*quiet=*/true);
        if (!path || path->size() != 1 || (*path)[0].alts.size() != 1) break;
        Ctx inner = ctx;
        inner.withStack.push_back(WithFrame{(*path)[0].alts[0]});
        execLayoutReplacements(inner, s.body);
        break;
      }
      case ast::LayoutStmtKind::Ref:
        break;
    }
  }
}

// ===========================================================================
// Statement execution
// ===========================================================================

void Impl::execStmtList(Ctx& ctx, const std::vector<ast::StmtPtr>& stmts) {
  for (const ast::StmtPtr& s : stmts) {
    if (!takeStep(s->loc)) return;
    execStmt(ctx, *s);
  }
}

void Impl::execStmt(Ctx& ctx, const Stmt& s) {
  switch (s.kind) {
    case StmtKind::Assign:
      if (s.isAlias) execAlias(ctx, s);
      else execAssign(ctx, s);
      return;
    case StmtKind::Connection: execConnection(ctx, s); return;
    case StmtKind::Replication: execFor(ctx, s); return;
    case StmtKind::CondGen: execWhen(ctx, s); return;
    case StmtKind::If: execIf(ctx, s); return;
    case StmtKind::Result: execResult(ctx, s); return;
    case StmtKind::Sequential: execSequential(ctx, s); return;
    case StmtKind::Parallel: execStmtList(ctx, s.body); return;
    case StmtKind::With: execWith(ctx, s); return;
    case StmtKind::Empty: return;
  }
}

void Impl::execAssign(Ctx& ctx, const Stmt& s) {
  // "* := e" is an empty assignment: the signal e stays available (§4.1).
  if (s.lhs->kind == ExprKind::Star) {
    (void)evalRVal(ctx, *s.rhs);
    return;
  }
  auto path = resolvePath(ctx, *s.lhs, /*quiet=*/false);
  if (!path) return;

  // Per-segment flattening: a NUM-indexed segment has several guarded
  // alternatives, all of the same shape — each logical rhs bit is written
  // to every alternative under that alternative's guard.
  std::vector<std::vector<std::vector<LBit>>> flat;  // [seg][alt][bit]
  size_t total = 0;
  for (const Segment& seg : *path) {
    std::vector<std::vector<LBit>> perAlt;
    for (const Alt& a : seg.alts) {
      std::vector<LBit> bits;
      flattenObj(a.obj, a.mode, a.ctx, a.guard, bits, s.loc);
      perAlt.push_back(std::move(bits));
    }
    if (!perAlt.empty()) total += perAlt[0].size();
    flat.push_back(std::move(perAlt));
  }

  auto rv = evalRVal(ctx, *s.rhs);
  if (!rv) return;
  if (!adaptR(*rv, total, s.loc)) return;

  size_t offset = 0;
  for (const auto& perAlt : flat) {
    if (perAlt.empty()) continue;
    size_t w = perAlt[0].size();
    for (const auto& bits : perAlt) {
      for (size_t j = 0; j < w && j < bits.size(); ++j) {
        assignBit(bits[j], rv->bits[offset + j], ctx.guard, s.loc);
      }
    }
    offset += w;
  }
}

void Impl::execAlias(Ctx& ctx, const Stmt& s) {
  // "x == *" / "* == x": empty alias; mark the other side used.
  if (s.lhs->kind == ExprKind::Star || s.rhs->kind == ExprKind::Star) {
    const Expr& other = s.lhs->kind == ExprKind::Star ? *s.rhs : *s.lhs;
    if (other.kind == ExprKind::Star) return;
    auto path = resolvePath(ctx, other, /*quiet=*/false);
    if (!path) return;
    std::vector<LBit> bits = flattenPathL(*path, s.loc);
    for (const LBit& b : bits) {
      if (b.ctx == RoleCtx::Child && b.net != kNoNet) markTouched(b.net);
    }
    return;
  }
  auto lp = resolvePath(ctx, *s.lhs, /*quiet=*/false);
  auto rp = resolvePath(ctx, *s.rhs, /*quiet=*/false);
  if (!lp || !rp) return;
  std::vector<LBit> a = flattenPathL(*lp, s.loc);
  std::vector<LBit> b = flattenPathL(*rp, s.loc);
  if (a.size() != b.size()) {
    error(Diag::WidthMismatch, s.loc,
          "aliased signals have " + std::to_string(a.size()) + " and " +
              std::to_string(b.size()) + " basic substructures");
    return;
  }
  for (size_t i = 0; i < a.size(); ++i) aliasBit(a[i], b[i], ctx.guard, s.loc);
}

void Impl::execIf(Ctx& ctx, const Stmt& s) {
  NetId outer = ctx.guard;
  NetId accNots = kNoNet;  // conjunction of NOT c1 .. NOT c_{k-1}
  for (const ast::StmtArm& arm : s.arms) {
    auto c = evalCond(ctx, *arm.cond);
    if (!c) return;
    NetId armGuard = andGuard(accNots, *c, s.loc);
    ctx.guard = andGuard(outer, armGuard, s.loc);
    execStmtList(ctx, arm.body);
    NetId notC = gate1(NodeOp::Not, *c, s.loc);
    accNots = andGuard(accNots, notC, s.loc);
  }
  if (!s.elseBody.empty()) {
    ctx.guard = andGuard(outer, accNots, s.loc);
    execStmtList(ctx, s.elseBody);
  }
  ctx.guard = outer;
}

void Impl::execFor(Ctx& ctx, const Stmt& s) {
  auto from = ceval_.evalNumber(*s.from, *ctx.env);
  auto to = ceval_.evalNumber(*s.to, *ctx.env);
  if (!from || !to) return;
  Env* saved = ctx.env;
  auto iterate = [&](int64_t i) {
    // Each iteration costs a step even when the body is empty, so an
    // unbounded replication cannot spin the elaborator forever.
    if (!takeStep(s.loc)) return false;
    Env* loopEnv = tt_.makeEnv(saved);
    loopEnv->defineLoopVar(s.loopVar, i);
    ctx.env = loopEnv;
    execStmtList(ctx, s.body);
    return true;
  };
  // Closed-interval loops written to avoid ++/-- overflow at the int64
  // extremes (FOR i := 1 TO 9223372036854775807 must diagnose, not UB).
  if (s.downto) {
    for (int64_t i = *from; i >= *to; --i) {
      if (!iterate(i) || i == *to) break;
    }
  } else {
    for (int64_t i = *from; i <= *to; ++i) {
      if (!iterate(i) || i == *to) break;
    }
  }
  ctx.env = saved;
}

void Impl::execWhen(Ctx& ctx, const Stmt& s) {
  for (const ast::StmtArm& arm : s.arms) {
    auto c = ceval_.evalNumber(*arm.cond, *ctx.env);
    if (!c) return;
    if (*c != 0) {
      execStmtList(ctx, arm.body);
      return;
    }
  }
  execStmtList(ctx, s.elseBody);
}

void Impl::execWith(Ctx& ctx, const Stmt& s) {
  auto path = resolvePath(ctx, *s.withSignal, /*quiet=*/false);
  if (!path) return;
  if (path->size() != 1 || (*path)[0].alts.size() != 1 ||
      (*path)[0].alts[0].guard != kNoNet) {
    error(Diag::UnexpectedToken, s.loc,
          "WITH requires a single, statically determined signal");
    return;
  }
  Alt base = (*path)[0].alts[0];
  if (base.obj->kind == ObjKind::Instance ||
      base.obj->kind == ObjKind::Virtual) {
    materialise(*base.obj, s.loc);
  }
  ctx.withStack.push_back(WithFrame{base});
  execStmtList(ctx, s.body);
  ctx.withStack.pop_back();
}

void Impl::execResult(Ctx& ctx, const Stmt& s) {
  InstanceData& inst = *ctx.inst;
  if (inst.resultNets.empty()) {
    error(Diag::ResultOutsideFunction, s.loc,
          "RESULT is only allowed inside a function component type");
    return;
  }
  auto rv = evalRVal(ctx, *s.value);
  if (!rv) return;
  if (!adaptR(*rv, inst.resultNets.size(), s.loc)) return;
  for (size_t i = 0; i < inst.resultNets.size(); ++i) {
    LBit l;
    l.net = inst.resultNets[i];
    l.kind = d_->netlist.net(l.net).kind;
    l.mode = ParamMode::Out;
    l.ctx = RoleCtx::Formal;
    assignBit(l, rv->bits[i], ctx.guard, s.loc);
  }
}

void Impl::execSequential(Ctx& ctx, const Stmt& s) {
  SeqGroups groups;
  groups.loc = s.loc;
  auto collect = [&](const Stmt& sub) {
    std::vector<NetId> log;
    std::vector<NetId>* saved = assignLog_;
    assignLog_ = &log;
    execStmt(ctx, sub);
    assignLog_ = saved;
    groups.groups.push_back(std::move(log));
  };
  for (const ast::StmtPtr& sub : s.body) {
    // FOR ... DO SEQUENTIALLY inside SEQUENTIAL: each iteration is its own
    // group (§4.5 example).
    if (sub->kind == StmtKind::Replication && sub->sequentially) {
      auto from = ceval_.evalNumber(*sub->from, *ctx.env);
      auto to = ceval_.evalNumber(*sub->to, *ctx.env);
      if (!from || !to) continue;
      Env* saved = ctx.env;
      auto iterate = [&](int64_t i) {
        Env* loopEnv = tt_.makeEnv(saved);
        loopEnv->defineLoopVar(sub->loopVar, i);
        ctx.env = loopEnv;
        std::vector<NetId> log;
        std::vector<NetId>* savedLog = assignLog_;
        assignLog_ = &log;
        execStmtList(ctx, sub->body);
        assignLog_ = savedLog;
        groups.groups.push_back(std::move(log));
      };
      if (sub->downto) {
        for (int64_t i = *from; i >= *to; --i) iterate(i);
      } else {
        for (int64_t i = *from; i <= *to; ++i) iterate(i);
      }
      ctx.env = saved;
    } else {
      collect(*sub);
    }
  }
  d_->sequentials.push_back(std::move(groups));
}

// ===========================================================================
// Connections (§4.3)
// ===========================================================================

void Impl::execConnection(Ctx& ctx, const Stmt& s) {
  auto path = resolvePath(ctx, *s.target, /*quiet=*/false);
  if (!path) return;

  // Collect the target instances in order.
  std::vector<InstanceData*> targets;
  bool bad = false;
  auto addObj = [&](auto&& self, Obj* o, SourceLoc loc) -> void {
    switch (o->kind) {
      case ObjKind::Instance:
      case ObjKind::Virtual:
        materialise(*o, loc);
        if (o->inst) targets.push_back(o->inst.get());
        else bad = true;
        return;
      case ObjKind::Array:
        for (Obj& e : o->elems) self(self, &e, loc);
        return;
      default:
        error(Diag::ConnectionOnNonComponent, loc,
              "connection target must be an instantiated component with a "
              "body");
        bad = true;
        return;
    }
  };
  for (Segment& seg : *path) {
    for (Alt& alt : seg.alts) {
      if (alt.guard != kNoNet) {
        error(Diag::ConnectionOnNonComponent, s.loc,
              "connection target cannot use NUM indexing");
        return;
      }
      addObj(addObj, alt.obj, s.loc);
    }
  }
  if (bad || targets.empty()) return;

  const Type* T = targets[0]->type;
  for (InstanceData* t : targets) {
    if (t->type != T) {
      error(Diag::BadConnectionShape, s.loc,
            "connection over components of different types");
      return;
    }
    if (!T->hasBody && T->builtin == BuiltinComponent::None) {
      error(Diag::ConnectionOnNonComponent, s.loc,
            "connection target '" + t->path +
                "' is a record type (component without body)");
      return;
    }
    if (t->connectionSeen) {
      error(Diag::ConnectionRepeated, s.loc,
            "component '" + t->path +
                "' already has a connection statement");
      return;
    }
    t->connectionSeen = true;
  }

  const std::vector<Field>& fields = T->fields;
  size_t n = fields.size();
  size_t q = targets.size();

  // Split the actuals: exactly n top-level expressions.
  std::vector<const Expr*> actuals;
  if (n == 1) {
    actuals.push_back(s.actuals.get());
  } else if (s.actuals->kind == ExprKind::Tuple &&
             s.actuals->elems.size() == n) {
    for (const ast::ExprPtr& e : s.actuals->elems) actuals.push_back(e.get());
  } else {
    error(Diag::BadConnectionShape, s.loc,
          "connection needs exactly " + std::to_string(n) +
              " actual parameter(s)");
    return;
  }

  for (size_t fi = 0; fi < n; ++fi) {
    const Field& f = fields[fi];
    // Formal bits for every target instance, concatenated.
    std::vector<LBit> formalBits;
    for (InstanceData* t : targets) {
      Member* m = t->findMember(f.name);
      assert(m);
      flattenObj(&m->obj, f.mode, RoleCtx::Child, kNoNet, formalBits, s.loc);
    }
    size_t need = formalBits.size();
    (void)q;

    switch (f.mode) {
      case ParamMode::In: {
        auto rv = evalRVal(ctx, *actuals[fi]);
        if (!rv) break;
        if (!adaptR(*rv, need, s.loc)) break;
        for (size_t i = 0; i < need; ++i) {
          assignBit(formalBits[i], rv->bits[i], ctx.guard, s.loc);
        }
        break;
      }
      case ParamMode::Out: {
        auto lv = evalLValExpr(ctx, *actuals[fi]);
        if (!lv) break;
        if (!adaptL(*lv, need, s.loc)) break;
        for (size_t i = 0; i < need; ++i) {
          const LBit& fb = formalBits[i];
          if (fb.net != kNoNet) markTouched(fb.net);
          if ((*lv)[i].star) continue;  // "*" — signal stays available
          RBit r;
          r.net = fb.net;
          assignBit((*lv)[i], r, ctx.guard, s.loc);
        }
        break;
      }
      case ParamMode::InOut: {
        auto lv = evalLValExpr(ctx, *actuals[fi]);
        if (!lv) break;
        if (!adaptL(*lv, need, s.loc)) break;
        for (size_t i = 0; i < need; ++i) {
          const LBit& fb = formalBits[i];
          if (fb.net != kNoNet) markTouched(fb.net);
          if ((*lv)[i].star) continue;  // empty alias (≡ no assignment)
          aliasBit(formalBits[i], (*lv)[i], ctx.guard, s.loc);
        }
        break;
      }
    }
  }
}

// ===========================================================================
// Path resolution
// ===========================================================================

bool Impl::selectInto(std::vector<Obj*>& out, Obj* o,
                      const std::string& field, ParamMode& mode, RoleCtx& ctx,
                      SourceLoc loc, bool quiet) {
  switch (o->kind) {
    case ObjKind::Array: {
      // Omitted selectors: r.in means r[1..n].in (§3.2).
      for (Obj& e : o->elems) {
        if (!selectInto(out, &e, field, mode, ctx, loc, quiet)) return false;
      }
      return true;
    }
    case ObjKind::Record: {
      const Type* t = o->type;
      for (size_t i = 0; i < t->fields.size(); ++i) {
        if (t->fields[i].name == field) {
          if (t->fields[i].mode != ParamMode::InOut)
            mode = t->fields[i].mode;
          out.push_back(&o->elems[i]);
          return true;
        }
      }
      if (!quiet) {
        error(Diag::UnknownIdentifier, loc,
              "no field '" + field + "' in record type " + t->name);
      }
      return false;
    }
    case ObjKind::Instance:
    case ObjKind::Virtual: {
      materialise(*o, loc);
      if (!o->inst) return false;
      Member* m = o->inst->findMember(field);
      if (!m || !m->isFormal) {
        if (!quiet) {
          error(Diag::UnknownIdentifier, loc,
                "no parameter '" + field + "' in component " +
                    o->inst->type->name);
        }
        return false;
      }
      ctx = RoleCtx::Child;
      mode = m->mode;
      out.push_back(&m->obj);
      return true;
    }
    case ObjKind::Wire:
      if (!quiet) {
        error(Diag::UnknownIdentifier, loc,
              "cannot select field '" + field + "' of a basic signal");
      }
      return false;
  }
  return false;
}

std::optional<Path> Impl::resolvePath(Ctx& ctx, const Expr& e, bool quiet) {
  switch (e.kind) {
    case ExprKind::NameRef: {
      if (e.name == "CLK" || e.name == "RSET") {
        Path p(1);
        Alt a;
        a.obj = e.name == "CLK" ? &clkObj_ : &rsetObj_;
        a.ctx = RoleCtx::Builtin;
        p[0].alts.push_back(a);
        return p;
      }
      // WITH frames first (innermost wins), then the instance's members.
      for (auto it = ctx.withStack.rbegin(); it != ctx.withStack.rend();
           ++it) {
        const Alt& base = it->base;
        const Type* t = base.obj->type;
        if (t && t->kind == Type::Kind::Component && t->findField(e.name)) {
          std::vector<Obj*> objs;
          ParamMode mode = base.mode;
          RoleCtx rc = base.ctx;
          if (!selectInto(objs, base.obj, e.name, mode, rc, e.loc, quiet))
            return std::nullopt;
          Path p(1);
          for (Obj* o : objs) p[0].alts.push_back({o, base.guard, rc, mode});
          // Multiple objs from array distribution become segments, not alts.
          if (objs.size() > 1) {
            Path q;
            for (Obj* o : objs) {
              Segment seg;
              seg.alts.push_back({o, base.guard, rc, mode});
              q.push_back(std::move(seg));
            }
            return q;
          }
          return p;
        }
      }
      if (Member* m = ctx.inst->findMember(e.name)) {
        Path p(1);
        Alt a;
        a.obj = &m->obj;
        a.ctx = m->isFormal ? RoleCtx::Formal : RoleCtx::Local;
        a.mode = m->isFormal ? m->mode : ParamMode::InOut;
        p[0].alts.push_back(a);
        return p;
      }
      if (!quiet) {
        error(Diag::UnknownIdentifier, e.loc,
              "unknown signal '" + e.name + "'");
      }
      return std::nullopt;
    }

    case ExprKind::Select: {
      auto base = resolvePath(ctx, *e.base, quiet);
      if (!base) return std::nullopt;
      Path out;
      for (Segment& seg : *base) {
        // Selecting distributes over each alternative; array distribution
        // expands one segment into several (same count for every alt).
        std::vector<std::vector<Obj*>> perAlt(seg.alts.size());
        size_t expanded = 0;
        for (size_t ai = 0; ai < seg.alts.size(); ++ai) {
          ParamMode mode = seg.alts[ai].mode;
          RoleCtx rc = seg.alts[ai].ctx;
          if (!selectInto(perAlt[ai], seg.alts[ai].obj, e.name, mode, rc,
                          e.loc, quiet))
            return std::nullopt;
          seg.alts[ai].mode = mode;
          seg.alts[ai].ctx = rc;
          if (ai == 0) expanded = perAlt[ai].size();
          else if (perAlt[ai].size() != expanded) return std::nullopt;
        }
        for (size_t k = 0; k < expanded; ++k) {
          Segment ns;
          for (size_t ai = 0; ai < seg.alts.size(); ++ai) {
            Alt a = seg.alts[ai];
            a.obj = perAlt[ai][k];
            ns.alts.push_back(a);
          }
          out.push_back(std::move(ns));
        }
      }
      return out;
    }

    case ExprKind::Index: {
      auto base = resolvePath(ctx, *e.base, quiet);
      if (!base) return std::nullopt;

      if (e.numIndex) {
        // Dynamic index: x[NUM(a)] — one segment, many guarded
        // alternatives (§3.2 / §5 RAM example).
        auto addr = evalRVal(ctx, *e.numIndex);
        if (!addr) return std::nullopt;
        std::vector<NetId> addrNets;
        for (const RBit& b : addr->bits) {
          if (b.empty || b.flexible) {
            error(Diag::NumIndexNotConstantWidth, e.loc,
                  "NUM argument cannot contain '*'");
            return std::nullopt;
          }
          addrNets.push_back(rbitNet(b));
        }
        int64_t w = static_cast<int64_t>(addrNets.size());
        if (w <= 0 || w > 30) {
          error(Diag::NumIndexNotConstantWidth, e.loc,
                "NUM argument must have between 1 and 30 bits");
          return std::nullopt;
        }
        Path out;
        for (Segment& seg : *base) {
          Segment ns;
          for (Alt& alt : seg.alts) {
            Obj* o = alt.obj;
            if (o->kind != ObjKind::Array) {
              if (!quiet)
                error(Diag::UnknownIdentifier, e.loc,
                      "NUM index applied to a non-array signal");
              return std::nullopt;
            }
            const Type* t = o->type;
            int64_t maxAddr = (int64_t{1} << w) - 1;
            for (int64_t i = std::max<int64_t>(t->lo, 0);
                 i <= std::min(t->hi, maxAddr); ++i) {
              NetId g = equalConst(addrNets, i, e.loc);
              g = andGuard(alt.guard, g, e.loc);
              ns.alts.push_back(
                  {&o->elems[static_cast<size_t>(i - t->lo)], g, alt.ctx,
                   alt.mode});
            }
          }
          out.push_back(std::move(ns));
        }
        return out;
      }

      auto lo = ceval_.evalNumber(*e.indexLo, *ctx.env);
      if (!lo) return std::nullopt;
      std::optional<int64_t> hi;
      if (e.indexHi) {
        hi = ceval_.evalNumber(*e.indexHi, *ctx.env);
        if (!hi) return std::nullopt;
      }
      Path out;
      for (Segment& seg : *base) {
        int64_t first = *lo;
        int64_t last = hi ? *hi : *lo;
        for (int64_t i = first; i <= last; ++i) {
          Segment ns;
          for (Alt& alt : seg.alts) {
            Obj* o = alt.obj;
            if (o->kind != ObjKind::Array) {
              if (!quiet)
                error(Diag::UnknownIdentifier, e.loc,
                      "indexing a non-array signal");
              return std::nullopt;
            }
            const Type* t = o->type;
            if (i < t->lo || i > t->hi) {
              error(Diag::IndexOutOfRange, e.loc,
                    "index " + std::to_string(i) + " outside " +
                        std::to_string(t->lo) + ".." + std::to_string(t->hi));
              return std::nullopt;
            }
            Alt a = alt;
            a.obj = &o->elems[static_cast<size_t>(i - t->lo)];
            ns.alts.push_back(a);
          }
          out.push_back(std::move(ns));
        }
      }
      return out;
    }

    default:
      if (!quiet) {
        error(Diag::ExpectedExpression, e.loc, "expected a signal");
      }
      return std::nullopt;
  }
}

void Impl::flattenObj(Obj* o, ParamMode inherited, RoleCtx ctx, NetId guard,
                      std::vector<LBit>& out, SourceLoc loc) {
  switch (o->kind) {
    case ObjKind::Wire: {
      LBit b;
      b.net = o->net;
      b.kind = o->type->basic;
      b.mode = inherited;
      b.ctx = ctx;
      b.guard = guard;
      out.push_back(b);
      return;
    }
    case ObjKind::Array:
      for (Obj& e : o->elems)
        flattenObj(&e, inherited, ctx, guard, out, loc);
      return;
    case ObjKind::Record: {
      const Type* t = o->type;
      for (size_t i = 0; i < t->fields.size(); ++i) {
        ParamMode m = t->fields[i].mode != ParamMode::InOut
                          ? t->fields[i].mode
                          : inherited;
        flattenObj(&o->elems[i], m, ctx, guard, out, loc);
      }
      return;
    }
    case ObjKind::Instance:
    case ObjKind::Virtual: {
      materialise(*o, loc);
      if (!o->inst) return;
      const Type* t = o->inst->type;
      for (const Field& f : t->fields) {
        Member* m = o->inst->findMember(f.name);
        if (m) flattenObj(&m->obj, f.mode, RoleCtx::Child, guard, out, loc);
      }
      return;
    }
  }
}

std::vector<LBit> Impl::flattenPathL(const Path& p, SourceLoc loc) {
  // Used where a statically-determined signal is required (aliasing,
  // connection actuals).  execAssign handles NUM-indexed targets itself.
  std::vector<LBit> out;
  for (const Segment& seg : p) {
    if (seg.alts.size() != 1) {
      error(Diag::NumIndexNotConstantWidth, loc,
            "a NUM-indexed signal cannot be used here");
      return out;
    }
    const Alt& a = seg.alts[0];
    flattenObj(a.obj, a.mode, a.ctx, a.guard, out, loc);
  }
  return out;
}

RVal Impl::flattenPathR(const Path& p, SourceLoc loc) {
  RVal out;
  for (const Segment& seg : p) {
    if (seg.alts.size() == 1) {
      const Alt& a = seg.alts[0];
      std::vector<LBit> bits;
      flattenObj(a.obj, a.mode, a.ctx, a.guard, bits, loc);
      for (const LBit& b : bits) {
        if (b.ctx == RoleCtx::Child && b.net != kNoNet) markTouched(b.net);
        RBit r;
        if (b.guard != kNoNet) {
          // single guarded alternative: value if guard else NOINFL
          NetId tmp = freshNet("$sel", BasicKind::Multiplex, loc);
          d_->netlist.net(tmp).condDrivers++;
          d_->netlist.addNode(NodeOp::Switch, {b.guard, b.net}, tmp, loc);
          r.net = tmp;
        } else {
          r.net = b.net;
        }
        out.bits.push_back(r);
      }
      continue;
    }
    // NUM indexing read: multiplex the alternatives.
    std::vector<std::vector<LBit>> flats(seg.alts.size());
    for (size_t ai = 0; ai < seg.alts.size(); ++ai) {
      const Alt& a = seg.alts[ai];
      flattenObj(a.obj, a.mode, a.ctx, a.guard, flats[ai], loc);
      for (const LBit& b : flats[ai]) {
        if (b.ctx == RoleCtx::Child && b.net != kNoNet) markTouched(b.net);
      }
    }
    size_t w = flats.empty() ? 0 : flats[0].size();
    for (size_t j = 0; j < w; ++j) {
      NetId tmp = freshNet("$mux", BasicKind::Multiplex, loc);
      for (size_t ai = 0; ai < flats.size(); ++ai) {
        if (j >= flats[ai].size()) continue;
        d_->netlist.net(tmp).condDrivers++;
        d_->netlist.addNode(NodeOp::Switch,
                            {flats[ai][j].guard, flats[ai][j].net}, tmp, loc);
      }
      RBit r;
      r.net = tmp;
      out.bits.push_back(r);
    }
  }
  return out;
}

// ===========================================================================
// Expressions
// ===========================================================================

std::optional<RVal> Impl::tryConstRVal(Ctx& ctx, const Expr& e) {
  scratchDiags_.clear();
  auto v = silentEval_.eval(e, *ctx.env);
  if (!v) return std::nullopt;
  RVal out;
  if (v->isNumber) {
    if (v->num != 0 && v->num != 1) {
      // Not representable as a signal; let the caller diagnose.
      return std::nullopt;
    }
    RBit b;
    b.isConst = true;
    b.cval = logicFromBool(v->num == 1);
    out.bits.push_back(b);
    return out;
  }
  for (Logic l : v->sig.flatten()) {
    RBit b;
    b.isConst = true;
    b.cval = l;
    out.bits.push_back(b);
  }
  return out;
}

std::optional<RVal> Impl::evalRVal(Ctx& ctx, const Expr& e) {
  switch (e.kind) {
    case ExprKind::Number: {
      if (e.number != 0 && e.number != 1) {
        error(Diag::WidthMismatch, e.loc,
              "only 0 and 1 are signal values (got " +
                  std::to_string(e.number) + ")");
        return std::nullopt;
      }
      RVal out;
      RBit b;
      b.isConst = true;
      b.cval = logicFromBool(e.number == 1);
      out.bits.push_back(b);
      return out;
    }

    case ExprKind::Star: {
      RVal out;
      if (e.base) {
        auto w = ceval_.evalNumber(*e.base, *ctx.env);
        if (!w) return std::nullopt;
        for (int64_t i = 0; i < *w; ++i) {
          RBit b;
          b.empty = true;
          out.bits.push_back(b);
        }
      } else {
        RBit b;
        b.empty = true;
        b.flexible = true;
        out.bits.push_back(b);
      }
      return out;
    }

    case ExprKind::Tuple: {
      RVal out;
      for (const ast::ExprPtr& el : e.elems) {
        auto v = evalRVal(ctx, *el);
        if (!v) return std::nullopt;
        out.bits.insert(out.bits.end(), v->bits.begin(), v->bits.end());
      }
      return out;
    }

    case ExprKind::Unary: {
      if (e.unOp == ast::UnOp::Not) {
        auto v = evalRVal(ctx, *e.base);
        if (!v) return std::nullopt;
        RVal out;
        for (const RBit& b : v->bits) {
          if (b.empty) {
            error(Diag::ExpectedExpression, e.loc,
                  "'*' cannot be a gate operand");
            return std::nullopt;
          }
          if (b.isConst) {
            RBit nb;
            nb.isConst = true;
            Logic in[1] = {b.cval};
            nb.cval = evalGate(NodeOp::Not, in);
            out.bits.push_back(nb);
            continue;
          }
          RBit nb;
          nb.net = gate1(NodeOp::Not, b.net, e.loc);
          out.bits.push_back(nb);
        }
        return out;
      }
      // +/- exist only in constant expressions.
      if (auto c = tryConstRVal(ctx, e)) return c;
      error(Diag::NotAConstant, e.loc,
            "unary +/- is only allowed in constant expressions");
      return std::nullopt;
    }

    case ExprKind::Binary: {
      if (auto c = tryConstRVal(ctx, e)) return c;
      error(Diag::NotAConstant, e.loc,
            "operators are only allowed in constant expressions; use the "
            "predefined function components for signals");
      return std::nullopt;
    }

    case ExprKind::Call:
      return evalCall(ctx, e);

    case ExprKind::NameRef:
    case ExprKind::Select:
    case ExprKind::Index: {
      // Signals shadow constants; try the path first, quietly.
      if (auto p = resolvePath(ctx, e, /*quiet=*/true)) {
        return flattenPathR(*p, e.loc);
      }
      if (auto c = tryConstRVal(ctx, e)) return c;
      // Re-run loudly for a decent diagnostic.
      if (auto p = resolvePath(ctx, e, /*quiet=*/false)) {
        return flattenPathR(*p, e.loc);
      }
      return std::nullopt;
    }
  }
  return std::nullopt;
}

std::optional<NetId> Impl::evalCond(Ctx& ctx, const Expr& e) {
  auto v = evalRVal(ctx, e);
  if (!v) return std::nullopt;
  if (v->bits.size() != 1 || v->bits[0].empty) {
    error(Diag::ConditionNotSingleBit, e.loc,
          "condition must be a single basic signal (got " +
              std::to_string(v->bits.size()) + " bits)");
    return std::nullopt;
  }
  return rbitNet(v->bits[0]);
}

std::optional<std::vector<LBit>> Impl::evalLValExpr(Ctx& ctx, const Expr& e) {
  switch (e.kind) {
    case ExprKind::Star: {
      std::vector<LBit> out;
      if (e.base) {
        auto w = ceval_.evalNumber(*e.base, *ctx.env);
        if (!w) return std::nullopt;
        for (int64_t i = 0; i < *w; ++i) {
          LBit b;
          b.star = true;
          out.push_back(b);
        }
      } else {
        LBit b;
        b.star = true;
        b.flexible = true;
        out.push_back(b);
      }
      return out;
    }
    case ExprKind::Tuple: {
      std::vector<LBit> out;
      for (const ast::ExprPtr& el : e.elems) {
        auto v = evalLValExpr(ctx, *el);
        if (!v) return std::nullopt;
        out.insert(out.end(), v->begin(), v->end());
      }
      return out;
    }
    default: {
      auto p = resolvePath(ctx, e, /*quiet=*/false);
      if (!p) return std::nullopt;
      return flattenPathL(*p, e.loc);
    }
  }
}

// ===========================================================================
// Calls
// ===========================================================================

std::optional<RVal> Impl::evalCall(Ctx& ctx, const Expr& e) {
  const std::string& name = e.name;

  // BIN is always constant.
  if (name == "BIN") {
    if (auto c = tryConstRVal(ctx, e)) return c;
    error(Diag::NotAConstant, e.loc, "BIN arguments must be constant");
    return std::nullopt;
  }

  if (name == "RANDOM") {
    if (!e.elems.empty()) {
      error(Diag::WrongArgumentCount, e.loc, "RANDOM takes no arguments");
      return std::nullopt;
    }
    NetId n = freshNet("$random", BasicKind::Boolean, e.loc);
    d_->netlist.net(n).uncondDrivers++;
    d_->netlist.addNode(NodeOp::Random, {}, n, e.loc);
    RVal out;
    RBit b;
    b.net = n;
    out.bits.push_back(b);
    return out;
  }

  // Predefined bit-wise gates.
  NodeOp gateOp = NodeOp::Buf;
  bool isGate = true;
  if (name == "AND") gateOp = NodeOp::And;
  else if (name == "OR") gateOp = NodeOp::Or;
  else if (name == "NAND") gateOp = NodeOp::Nand;
  else if (name == "NOR") gateOp = NodeOp::Nor;
  else if (name == "XOR") gateOp = NodeOp::Xor;
  else if (name == "NOT") gateOp = NodeOp::Not;
  else isGate = false;

  if (isGate || name == "EQUAL") {
    std::vector<RVal> args;
    for (const ast::ExprPtr& a : e.elems) {
      auto v = evalRVal(ctx, *a);
      if (!v) return std::nullopt;
      args.push_back(std::move(*v));
    }
    if (args.empty() || (name == "NOT" && args.size() != 1) ||
        (name == "EQUAL" && args.size() != 2)) {
      error(Diag::WrongArgumentCount, e.loc,
            "wrong number of arguments to " + name);
      return std::nullopt;
    }
    size_t m = args[0].bits.size();
    for (const RVal& a : args) {
      if (a.bits.size() != m) {
        error(Diag::WidthMismatch, e.loc,
              name + " arguments must have the same number of basic "
                     "substructures");
        return std::nullopt;
      }
      for (const RBit& b : a.bits) {
        if (b.empty) {
          error(Diag::ExpectedExpression, e.loc,
                "'*' cannot be a gate operand");
          return std::nullopt;
        }
      }
    }
    RVal out;
    if (name == "EQUAL") {
      // Constant-fold when both sides are constant.
      bool allConst = true;
      for (const RVal& a : args)
        for (const RBit& b : a.bits)
          if (!b.isConst) allConst = false;
      if (allConst) {
        std::vector<Logic> av, bv;
        for (const RBit& b : args[0].bits) av.push_back(b.cval);
        for (const RBit& b : args[1].bits) bv.push_back(b.cval);
        RBit r;
        r.isConst = true;
        r.cval = evalEqual(av, bv);
        out.bits.push_back(r);
        return out;
      }
      // rbitNet may add a Const node: gather before adding the EQUAL.
      std::vector<NetId> ins;
      for (const RBit& b : args[0].bits) ins.push_back(rbitNet(b));
      for (const RBit& b : args[1].bits) ins.push_back(rbitNet(b));
      NetId n = freshNet("$equal", BasicKind::Boolean, e.loc);
      d_->netlist.net(n).uncondDrivers++;
      d_->netlist.addNode(NodeOp::Equal, ins, n, e.loc);
      RBit r;
      r.net = n;
      out.bits.push_back(r);
      return out;
    }
    // Bit-wise gate over m bits.
    std::vector<NetId> ins;
    for (size_t j = 0; j < m; ++j) {
      bool allConst = true;
      std::vector<Logic> cvals;
      for (const RVal& a : args) {
        if (!a.bits[j].isConst) allConst = false;
        else cvals.push_back(a.bits[j].cval);
      }
      if (allConst) {
        RBit r;
        r.isConst = true;
        r.cval = evalGate(gateOp, cvals);
        out.bits.push_back(r);
        continue;
      }
      ins.clear();
      for (const RVal& a : args) ins.push_back(rbitNet(a.bits[j]));
      NetId n = freshNet("$g", BasicKind::Boolean, e.loc);
      d_->netlist.net(n).uncondDrivers++;
      d_->netlist.addNode(gateOp, ins, n, e.loc);
      RBit r;
      r.net = n;
      out.bits.push_back(r);
    }
    return out;
  }

  if (name == "plus" || name == "minus" || name == "ge" || name == "lt") {
    // Only when the user has not declared their own component of this name.
    if (!ctx.env->lookupType(name)) return synthArith(ctx, e);
  }

  // User-defined function component.
  if (const TypeBinding* tb = ctx.env->lookupType(name)) {
    (void)tb;
    std::vector<int64_t> targs;
    for (const ast::ExprPtr& a : e.typeArgs) {
      auto v = ceval_.evalNumber(*a, *ctx.env);
      if (!v) return std::nullopt;
      targs.push_back(*v);
    }
    const Type* fn = tt_.instantiateNamed(name, targs, *ctx.env, e.loc);
    if (!fn) return std::nullopt;
    if (!fn->isFunction()) {
      error(Diag::NotAFunctionComponent, e.loc,
            "'" + name + "' is not a function component type");
      return std::nullopt;
    }
    return callUserFunction(ctx, e, fn);
  }

  error(Diag::UnknownIdentifier, e.loc,
        "unknown function component '" + name + "'");
  return std::nullopt;
}

std::optional<RVal> Impl::synthArith(Ctx& ctx, const Expr& e) {
  // Predefined arithmetic helpers (the blackjack example lists plus, minus,
  // ge and lt as available): synthesised as ripple-carry gate networks so
  // the simulator core needs no numeric primitives.
  const std::string& name = e.name;
  if (e.elems.size() != 2) {
    error(Diag::WrongArgumentCount, e.loc, name + " takes two arguments");
    return std::nullopt;
  }
  auto a = evalRVal(ctx, *e.elems[0]);
  auto b = evalRVal(ctx, *e.elems[1]);
  if (!a || !b) return std::nullopt;
  if (a->bits.size() != b->bits.size() || a->bits.empty()) {
    error(Diag::WidthMismatch, e.loc,
          name + " operands must have the same non-zero width");
    return std::nullopt;
  }
  size_t n = a->bits.size();
  bool sub = name != "plus";  // minus/ge/lt use a + NOT b + 1
  NetId carry = constNet(sub ? Logic::One : Logic::Zero);
  RVal out;
  for (size_t j = 0; j < n; ++j) {
    NetId aj = rbitNet(a->bits[j]);
    NetId bj = rbitNet(b->bits[j]);
    if (sub) bj = gate1(NodeOp::Not, bj, e.loc);
    NetId axb = gate2(NodeOp::Xor, aj, bj, e.loc);
    NetId s = gate2(NodeOp::Xor, axb, carry, e.loc);
    NetId c1 = gate2(NodeOp::And, aj, bj, e.loc);
    NetId c2 = gate2(NodeOp::And, axb, carry, e.loc);
    carry = gate2(NodeOp::Or, c1, c2, e.loc);
    if (name == "plus" || name == "minus") {
      RBit r;
      r.net = s;
      out.bits.push_back(r);
    }
  }
  if (name == "ge") {
    RBit r;
    r.net = carry;  // no borrow: a >= b (unsigned)
    out.bits.push_back(r);
  } else if (name == "lt") {
    RBit r;
    r.net = gate1(NodeOp::Not, carry, e.loc);
    out.bits.push_back(r);
  }
  return out;
}

std::optional<RVal> Impl::callUserFunction(Ctx& ctx, const Expr& e,
                                           const Type* fnType) {
  if (e.elems.size() != fnType->fields.size()) {
    error(Diag::WrongArgumentCount, e.loc,
          "'" + e.name + "' expects " +
              std::to_string(fnType->fields.size()) + " argument(s), got " +
              std::to_string(e.elems.size()));
    return std::nullopt;
  }
  // Instantiate the function component inline.
  std::string key = "$" + e.name + std::to_string(callCounter_++);
  Member m;
  m.isFormal = false;
  m.loc = e.loc;
  Obj fo;
  fo.kind = ObjKind::Instance;
  fo.type = fnType;
  fo.instPath = ctx.inst->path + "." + key;
  m.obj = std::move(fo);
  auto [it, inserted] = ctx.inst->members.emplace(key, std::move(m));
  assert(inserted);
  Obj& obj = it->second.obj;
  materialise(obj, e.loc);
  if (!obj.inst) return std::nullopt;
  obj.inst->isFunctionCall = true;

  // Bind actuals.  The call hardware exists unconditionally even inside an
  // IF statement — only the use of the result is guarded (§3.2).
  NetId savedGuard = ctx.guard;
  ctx.guard = kNoNet;
  for (size_t fi = 0; fi < fnType->fields.size(); ++fi) {
    const Field& f = fnType->fields[fi];
    Member* fm = obj.inst->findMember(f.name);
    assert(fm);
    std::vector<LBit> formalBits;
    flattenObj(&fm->obj, f.mode, RoleCtx::Child, kNoNet, formalBits, e.loc);
    for (const LBit& b : formalBits)
      if (b.net != kNoNet) markTouched(b.net);
    switch (f.mode) {
      case ParamMode::In: {
        auto rv = evalRVal(ctx, *e.elems[fi]);
        if (!rv) break;
        if (!adaptR(*rv, formalBits.size(), e.loc)) break;
        for (size_t i = 0; i < formalBits.size(); ++i)
          assignBit(formalBits[i], rv->bits[i], kNoNet, e.loc);
        break;
      }
      case ParamMode::Out: {
        auto lv = evalLValExpr(ctx, *e.elems[fi]);
        if (!lv) break;
        if (!adaptL(*lv, formalBits.size(), e.loc)) break;
        for (size_t i = 0; i < formalBits.size(); ++i) {
          if ((*lv)[i].star) continue;
          RBit r;
          r.net = formalBits[i].net;
          assignBit((*lv)[i], r, kNoNet, e.loc);
        }
        break;
      }
      case ParamMode::InOut: {
        auto lv = evalLValExpr(ctx, *e.elems[fi]);
        if (!lv) break;
        if (!adaptL(*lv, formalBits.size(), e.loc)) break;
        for (size_t i = 0; i < formalBits.size(); ++i) {
          if ((*lv)[i].star) continue;
          aliasBit(formalBits[i], (*lv)[i], kNoNet, e.loc);
        }
        break;
      }
    }
  }
  ctx.guard = savedGuard;

  RVal out;
  for (NetId n : obj.inst->resultNets) {
    RBit b;
    b.net = n;
    out.bits.push_back(b);
  }
  return out;
}

// ===========================================================================
// Assignment machinery
// ===========================================================================

bool Impl::adaptR(RVal& v, size_t need, SourceLoc loc) {
  size_t flexAt = SIZE_MAX;
  size_t fixed = 0;
  for (size_t i = 0; i < v.bits.size(); ++i) {
    if (v.bits[i].flexible) {
      if (flexAt != SIZE_MAX) {
        error(Diag::WidthMismatch, loc,
              "at most one unbounded '*' per expression");
        return false;
      }
      flexAt = i;
    } else {
      ++fixed;
    }
  }
  if (flexAt == SIZE_MAX) {
    if (fixed != need) {
      error(Diag::WidthMismatch, loc,
            "expression has " + std::to_string(fixed) +
                " basic substructures, expected " + std::to_string(need));
      return false;
    }
    return true;
  }
  if (fixed > need) {
    error(Diag::WidthMismatch, loc,
          "expression too wide: " + std::to_string(fixed) + " > " +
              std::to_string(need));
    return false;
  }
  std::vector<RBit> expanded;
  expanded.reserve(need);
  for (size_t i = 0; i < v.bits.size(); ++i) {
    if (i == flexAt) {
      RBit star;
      star.empty = true;
      for (size_t k = 0; k < need - fixed; ++k) expanded.push_back(star);
    } else {
      expanded.push_back(v.bits[i]);
    }
  }
  v.bits = std::move(expanded);
  return true;
}

bool Impl::adaptL(std::vector<LBit>& v, size_t need, SourceLoc loc) {
  size_t flexAt = SIZE_MAX;
  size_t fixed = 0;
  for (size_t i = 0; i < v.size(); ++i) {
    if (v[i].flexible) {
      if (flexAt != SIZE_MAX) {
        error(Diag::WidthMismatch, loc,
              "at most one unbounded '*' per signal expression");
        return false;
      }
      flexAt = i;
    } else {
      ++fixed;
    }
  }
  if (flexAt == SIZE_MAX) {
    if (fixed != need) {
      error(Diag::WidthMismatch, loc,
            "signal expression has " + std::to_string(fixed) +
                " basic substructures, expected " + std::to_string(need));
      return false;
    }
    return true;
  }
  if (fixed > need) {
    error(Diag::WidthMismatch, loc, "signal expression too wide");
    return false;
  }
  std::vector<LBit> expanded;
  expanded.reserve(need);
  for (size_t i = 0; i < v.size(); ++i) {
    if (i == flexAt) {
      LBit star;
      star.star = true;
      for (size_t k = 0; k < need - fixed; ++k) expanded.push_back(star);
    } else {
      expanded.push_back(v[i]);
    }
  }
  v = std::move(expanded);
  return true;
}

void Impl::assignBit(const LBit& l, const RBit& r, NetId stmtGuard,
                     SourceLoc loc) {
  if (l.star) {
    return;  // "x := *": empty assignment
  }
  if (l.ctx == RoleCtx::Child && l.net != kNoNet) markTouched(l.net);
  if (r.empty) {
    return;  // rhs "*": empty assignment; net left undriven reads UNDEF
  }
  if (l.ctx == RoleCtx::Builtin) {
    error(Diag::AssignToInParameter, loc,
          "cannot assign to the predefined signal");
    return;
  }
  if (l.ctx == RoleCtx::Formal && l.mode == ParamMode::In) {
    error(Diag::AssignToInParameter, loc,
          "no assignment is allowed to a formal IN parameter");
    return;
  }
  if (l.ctx == RoleCtx::Child && l.mode == ParamMode::Out) {
    error(Diag::AssignToOutOfInstance, loc,
          "no assignment is allowed to an OUT parameter of an instantiated "
          "component");
    return;
  }

  NetId guard = andGuard(stmtGuard, l.guard, loc);
  NetId root = d_->netlist.find(l.net);
  Net& rn = d_->netlist.net(root);

  if (guard == kNoNet) {
    // x := NOINFL on a boolean is replaced by x := UNDEF (§4.1).
    Logic constVal = (l.kind == BasicKind::Boolean && r.cval == Logic::NoInfl)
                         ? Logic::Undef
                         : r.cval;
    if (rn.uncondDrivers > 0) {
      // "It is allowed to specify connections several times as long as
      // they are identical" (§4.3): a second, identical unconditional
      // driver is dropped silently.
      for (NodeId di : d_->netlist.driversOf(root)) {
        const Node& dn = d_->netlist.node(di);
        if (r.isConst && dn.op == NodeOp::Const && dn.constVal == constVal)
          return;
        if (!r.isConst && dn.op == NodeOp::Buf &&
            d_->netlist.find(d_->netlist.inputs(di)[0]) ==
                d_->netlist.find(r.net))
          return;
      }
      error(Diag::MultipleUnconditionalAssignment, loc,
            "signal '" + d_->netlist.net(l.net).name +
                "' is unconditionally assigned more than once");
      return;
    }
    if (rn.condDrivers > 0) {
      error(Diag::ConditionalAndUnconditionalAssignment, loc,
            "signal '" + d_->netlist.net(l.net).name +
                "' is assigned both conditionally and unconditionally");
      return;
    }
    if (rn.aliasTarget && l.kind == BasicKind::Boolean) {
      error(Diag::AliasBooleanNotException, loc,
            "a boolean signal assigned with '==' may not also be "
            "unconditionally assigned with ':='");
      return;
    }
    // The table-(1) mux:=mux prohibition concerns *user* signals; nets
    // synthesised for expression results (NUM multiplexers) are exempt.
    if (l.kind == BasicKind::Multiplex && !r.isConst && r.net != kNoNet &&
        d_->netlist.net(d_->netlist.find(r.net)).kind ==
            BasicKind::Multiplex &&
        !d_->netlist.net(r.net).synthetic) {
      error(Diag::MultiplexToMultiplexAssign, loc,
            "unconditional ':=' between two multiplex signals is illegal; "
            "use '==' instead");
      return;
    }
    if (r.isConst) {
      d_->netlist.addNode(NodeOp::Const, {}, l.net, loc, constVal);
    } else {
      d_->netlist.addNode(NodeOp::Buf, {r.net}, l.net, loc);
    }
    rn.uncondDrivers++;
    logAssign(root);
    return;
  }

  // Conditional assignment.
  if (rn.uncondDrivers > 0) {
    error(Diag::ConditionalAndUnconditionalAssignment, loc,
          "signal '" + d_->netlist.net(l.net).name +
              "' is assigned both conditionally and unconditionally");
    return;
  }
  if (l.kind == BasicKind::Boolean && !rn.allowCond) {
    error(Diag::ConditionalAssignToBoolean, loc,
          "conditional assignment to boolean signal '" +
              d_->netlist.net(l.net).name +
              "' (only multiplex signals, IN parameters of instantiated "
              "components and formal OUT parameters may be assigned "
              "conditionally)");
    return;
  }
  // constNet may add a net and reallocate the nets vector, invalidating
  // rn — resolve it before touching the reference again.
  NetId value = r.isConst ? constNet(r.cval) : r.net;
  d_->netlist.addNode(NodeOp::Switch, {guard, value}, l.net, loc);
  d_->netlist.net(root).condDrivers++;
  logAssign(root);
}

void Impl::aliasBit(const LBit& a, const LBit& b, NetId guard,
                    SourceLoc loc) {
  if (a.star || b.star) return;
  if (guard != kNoNet || a.guard != kNoNet || b.guard != kNoNet) {
    error(Diag::AliasInsideConditional, loc,
          "aliasing ('==') cannot be done conditionally");
    return;
  }
  auto isException = [](const LBit& x) {
    return (x.ctx == RoleCtx::Child && x.mode == ParamMode::In) ||
           (x.ctx == RoleCtx::Formal && x.mode == ParamMode::Out);
  };
  if (a.kind == BasicKind::Boolean && b.kind == BasicKind::Boolean) {
    error(Diag::AliasOfBooleans, loc,
          "'==' between two boolean signals is illegal (it could connect "
          "power to ground)");
    return;
  }
  for (const LBit* x : {&a, &b}) {
    if (x->kind == BasicKind::Boolean && !isException(*x)) {
      error(Diag::AliasBooleanNotException, loc,
            "a boolean signal may only be aliased if it is an IN parameter "
            "of an instantiated component or a formal OUT parameter");
      return;
    }
    if (x->ctx == RoleCtx::Formal && x->mode == ParamMode::In) {
      error(Diag::AssignToInParameter, loc,
            "a formal IN parameter cannot be aliased inside its component");
      return;
    }
    if (x->ctx == RoleCtx::Builtin) {
      error(Diag::AssignToInParameter, loc,
            "cannot alias the predefined signal");
      return;
    }
  }
  if (a.ctx == RoleCtx::Child && a.net != kNoNet) markTouched(a.net);
  if (b.ctx == RoleCtx::Child && b.net != kNoNet) markTouched(b.net);
  d_->netlist.unite(a.net, b.net);
}

// ===========================================================================
// Netlist helpers
// ===========================================================================

NetId Impl::constNet(Logic v) {
  NetId& slot = constNets_[static_cast<int>(v)];
  if (slot == kNoNet) {
    slot = d_->netlist.addNet(std::string("$const") +
                                  std::string(logicName(v)),
                              v == Logic::NoInfl ? BasicKind::Multiplex
                                                 : BasicKind::Boolean,
                              {});
    d_->netlist.net(slot).uncondDrivers++;
    d_->netlist.addNode(NodeOp::Const, {}, slot, {}, v);
  }
  return slot;
}

NetId Impl::rbitNet(const RBit& b) {
  if (b.isConst) return constNet(b.cval);
  if (b.empty) return constNet(Logic::Undef);
  return b.net;
}

NetId Impl::freshNet(const char* tag, BasicKind kind, SourceLoc loc) {
  NetId n = d_->netlist.addNet(
      std::string(tag) + std::to_string(d_->netlist.netCount()), kind, loc);
  d_->netlist.net(n).synthetic = true;
  return n;
}

NetId Impl::gate1(NodeOp op, NetId a, SourceLoc loc) {
  NetId out = freshNet("$g", BasicKind::Boolean, loc);
  d_->netlist.net(out).uncondDrivers++;
  d_->netlist.addNode(op, {a}, out, loc);
  return out;
}

NetId Impl::gate2(NodeOp op, NetId a, NetId b, SourceLoc loc) {
  NetId out = freshNet("$g", BasicKind::Boolean, loc);
  d_->netlist.net(out).uncondDrivers++;
  d_->netlist.addNode(op, {a, b}, out, loc);
  return out;
}

NetId Impl::andGuard(NetId a, NetId b, SourceLoc loc) {
  if (a == kNoNet) return b;
  if (b == kNoNet) return a;
  return gate2(NodeOp::And, a, b, loc);
}

NetId Impl::equalConst(const std::vector<NetId>& addr, int64_t value,
                       SourceLoc loc) {
  // constNet may add a Const node: gather before adding the EQUAL.
  std::vector<NetId> ins(addr);
  for (size_t i = 0; i < addr.size(); ++i) {
    ins.push_back(constNet(logicFromBool((value >> i) & 1)));
  }
  NetId out = freshNet("$addr", BasicKind::Boolean, loc);
  d_->netlist.net(out).uncondDrivers++;
  d_->netlist.addNode(NodeOp::Equal, ins, out, loc);
  return out;
}

// ===========================================================================
// Post passes & driver
// ===========================================================================

void Impl::checkUnusedPorts(const InstanceData& inst) {
  // §4.1: unused ports of relevant (not completely disconnected)
  // components have to be closed explicitly.
  for (const auto& [name, m] : inst.members) {
    // Recurse into child instances.
    std::vector<const Obj*> stack{&m.obj};
    while (!stack.empty()) {
      const Obj* o = stack.back();
      stack.pop_back();
      if (o->kind == ObjKind::Array || o->kind == ObjKind::Record) {
        for (const Obj& e : o->elems) stack.push_back(&e);
      } else if (o->kind == ObjKind::Instance && o->inst) {
        checkUnusedPorts(*o->inst);
        if (o->inst->isFunctionCall) continue;
        // Gather pin nets.
        std::vector<std::pair<std::string, NetId>> pins;
        for (const auto& [fname, fm] : o->inst->members) {
          if (!fm.isFormal) continue;
          // flatten wires only (sub-instances check themselves)
          std::vector<std::pair<const Obj*, std::string>> work{
              {&fm.obj, fname}};
          while (!work.empty()) {
            auto [po, pp] = work.back();
            work.pop_back();
            if (po->kind == ObjKind::Wire) {
              pins.emplace_back(pp, po->net);
            } else if (po->kind == ObjKind::Array ||
                       po->kind == ObjKind::Record) {
              for (size_t i = 0; i < po->elems.size(); ++i)
                work.push_back({&po->elems[i], pp + "[" +
                                                   std::to_string(i) + "]"});
            }
          }
        }
        size_t touched = 0;
        for (const auto& [pp, netid] : pins) {
          if (d_->netlist.net(netid).touchedByParent) ++touched;
        }
        if (touched > 0 && touched < pins.size()) {
          for (const auto& [pp, netid] : pins) {
            if (!d_->netlist.net(netid).touchedByParent) {
              diags_.report(
                  Diag::UnusedPort,
                  opts_.strictUnusedPorts ? Severity::Error
                                          : Severity::Warning,
                  o->inst->loc,
                  "port '" + pp + "' of component '" + o->inst->path +
                      "' is neither used nor closed with '*'");
            }
          }
        }
      }
    }
  }
}

std::unique_ptr<Design> Impl::run(const ast::Program& program, Env& rootEnv,
                                  const std::string& topName) {
  const size_t errorsBefore = diags_.errorCount();
  d_ = std::make_unique<Design>();
  d_->topName = topName;

  d_->clk = d_->netlist.addNet("CLK", BasicKind::Boolean, {});
  d_->rset = d_->netlist.addNet("RSET", BasicKind::Boolean, {});
  d_->netlist.net(d_->clk).isPrimaryInput = true;
  d_->netlist.net(d_->rset).isPrimaryInput = true;
  clkObj_.kind = ObjKind::Wire;
  clkObj_.type = tt_.boolean();
  clkObj_.net = d_->clk;
  rsetObj_.kind = ObjKind::Wire;
  rsetObj_.type = tt_.boolean();
  rsetObj_.net = d_->rset;

  // Find the top-level SIGNAL declaration.
  const ast::Decl* topDecl = nullptr;
  for (const ast::DeclPtr& dp : program.decls) {
    if (dp->kind != ast::DeclKind::Signal) continue;
    for (const std::string& n : dp->names) {
      if (n == topName) topDecl = dp.get();
    }
  }
  if (!topDecl) {
    error(Diag::UnknownIdentifier, {},
          "no top-level SIGNAL declaration named '" + topName + "'");
    return nullptr;
  }
  const Type* topType = tt_.resolve(*topDecl->type, rootEnv);
  if (!topType) return nullptr;
  if (topType->kind != Type::Kind::Component ||
      (!topType->hasBody && topType->builtin == BuiltinComponent::None)) {
    error(Diag::NotAComponentType, topDecl->loc,
          "top signal '" + topName +
              "' must be an instance of a component type with a body");
    return nullptr;
  }

  d_->topObj = makeObj(topType, topName, false, topDecl->loc);
  materialise(d_->topObj, topDecl->loc);
  if (!d_->topObj.inst) {
    noteUsage();  // report what a failed elaboration consumed
    return nullptr;
  }
  d_->top = d_->topObj.inst.get();

  // Primary ports.
  for (const Field& f : topType->fields) {
    Member* m = d_->top->findMember(f.name);
    if (!m) continue;
    Port port;
    port.name = f.name;
    port.mode = f.mode;
    std::vector<LBit> bits;
    flattenObj(&m->obj, f.mode, RoleCtx::Child, kNoNet, bits, topDecl->loc);
    for (const LBit& b : bits) {
      port.nets.push_back(b.net);
      port.kinds.push_back(b.kind);
      port.modes.push_back(b.mode);
      Net& net = d_->netlist.net(b.net);
      net.touchedByParent = true;  // the simulation is the parent
      if (b.mode == ParamMode::In) net.isPrimaryInput = true;
      else if (b.mode == ParamMode::Out) net.isPrimaryOutput = true;
      else {
        net.isPrimaryInput = true;
        net.isPrimaryOutput = true;
      }
    }
    d_->ports.push_back(std::move(port));
  }

  checkUnusedPorts(*d_->top);
  d_->netlist.canonicalise();
  noteUsage();

  if (diags_.errorCount() > errorsBefore) return nullptr;
  return std::move(d_);
}

}  // namespace elab_detail

Elaborator::Elaborator(DiagnosticEngine& diags, TypeTable& types,
                       Options options)
    : diags_(diags), types_(types), options_(options) {}

std::unique_ptr<Design> Elaborator::elaborate(const ast::Program& program,
                                              Env& rootEnv,
                                              const std::string& topName) {
  elab_detail::Impl impl(diags_, types_, options_);
  return impl.run(program, rootEnv, topName);
}

}  // namespace zeus
