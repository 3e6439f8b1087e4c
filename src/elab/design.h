// The elaborated design: object trees, component instances and the flat
// netlist, plus everything the layout engine and simulator need.
//
// An Obj mirrors the structure of a resolved type:
//   Wire     — one basic signal (a net)
//   Array    — elements in index order
//   Record   — a component type without body: named wire bundles
//   Instance — a component type with body; materialised lazily (§4.2:
//              completely disconnected components are never generated)
//   Virtual  — a placeholder replaced by a real component type through the
//              layout language's replacement statement (§6.4)
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/ast/ast.h"
#include "src/elab/netlist.h"
#include "src/sema/type_table.h"

namespace zeus {

struct InstanceData;

enum class ObjKind : uint8_t { Wire, Array, Record, Instance, Virtual };

struct Obj {
  ObjKind kind = ObjKind::Wire;
  const Type* type = nullptr;
  NetId net = kNoNet;                  ///< Wire
  std::vector<Obj> elems;              ///< Array elements / Record fields
  std::unique_ptr<InstanceData> inst;  ///< Instance body (null until used)
  const Type* replacedType = nullptr;  ///< Virtual: the replacement type
  std::string instPath;  ///< hierarchical path (Instance / Virtual only)

  [[nodiscard]] bool isMaterialisedInstance() const {
    return kind == ObjKind::Instance && inst != nullptr;
  }
};

/// One named object inside an instance: a formal parameter or a local
/// signal declaration.
struct Member {
  Obj obj;
  bool isFormal = false;
  ast::ParamMode mode = ast::ParamMode::InOut;  ///< for formals
  SourceLoc loc;
};

/// A materialised component instance.
struct InstanceData {
  std::string path;   ///< hierarchical, e.g. "match.pe[2].comp"
  const Type* type = nullptr;
  InstanceData* parent = nullptr;
  std::map<std::string, Member> members;
  std::vector<std::string> memberOrder;  ///< declaration order of members
  std::vector<NetId> resultNets;         ///< function components
  Env* env = nullptr;  ///< body environment (consts/types/formals bound)
  bool connectionSeen = false;
  bool isFunctionCall = false;  ///< inline function-component instantiation
  SourceLoc loc;

  [[nodiscard]] Member* findMember(const std::string& name) {
    auto it = members.find(name);
    return it == members.end() ? nullptr : &it->second;
  }
};

/// A primary port of the elaborated top component.
struct Port {
  std::string name;  ///< formal parameter name on the top component
  std::vector<NetId> nets;
  std::vector<BasicKind> kinds;
  std::vector<ast::ParamMode> modes;  ///< per-bit effective mode
  ast::ParamMode mode = ast::ParamMode::InOut;  ///< declared field mode
};

/// Sequential-ordering annotation: per SEQUENTIAL statement, the sets of
/// nets assigned by each of its direct sub-statements (§4.5).
struct SeqGroups {
  SourceLoc loc;
  std::vector<std::vector<NetId>> groups;
};

struct Design {
  Netlist netlist;
  Obj topObj;                ///< the top instance object
  InstanceData* top = nullptr;
  std::string topName;
  std::vector<Port> ports;
  NetId clk = kNoNet;
  NetId rset = kNoNet;
  std::vector<SeqGroups> sequentials;

  /// Nonzero once the optimization pipeline (src/transform) has run:
  /// a hash of the pass configuration and its effect, folded into
  /// designContentHash so ZSNP snapshots taken at different -O levels
  /// (different dense-net numbering) can never be cross-restored.
  uint64_t optFingerprint = 0;

  [[nodiscard]] const Port* findPort(const std::string& name) const {
    for (const Port& p : ports) {
      // Length and first byte rule out most ports without a memcmp call
      // (both strings are NUL-terminated, so [0] is safe when empty);
      // string-keyed port I/O looks a name up on every call.
      if (p.name.size() == name.size() && p.name[0] == name[0] &&
          p.name == name)
        return &p;
    }
    return nullptr;
  }
};

}  // namespace zeus
