#include "src/sim/snapshot.h"

#include <cstdio>
#include <cstring>

#include "src/support/metrics.h"
#include "src/support/trace.h"

namespace zeus {

namespace {

metrics::Counter snapshotSaves("snapshot-saves");
metrics::Counter snapshotLoads("snapshot-loads");

// -- FNV-1a ------------------------------------------------------------

constexpr uint64_t kFnvOffset = 0xCBF29CE484222325ull;
constexpr uint64_t kFnvPrime = 0x100000001B3ull;

void fnv(uint64_t& h, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (i * 8)) & 0xFF;
    h *= kFnvPrime;
  }
}

void fnvStr(uint64_t& h, const std::string& s) {
  fnv(h, s.size());
  for (unsigned char c : s) {
    h ^= c;
    h *= kFnvPrime;
  }
}

// -- byte cursor -------------------------------------------------------

struct Writer {
  std::vector<uint8_t> bytes;

  void u8(uint8_t v) { bytes.push_back(v); }
  void u32(uint32_t v) {
    for (int i = 0; i < 4; ++i) bytes.push_back((v >> (i * 8)) & 0xFF);
  }
  void u64(uint64_t v) {
    for (int i = 0; i < 8; ++i) bytes.push_back((v >> (i * 8)) & 0xFF);
  }
  void str(const std::string& s) {
    u64(s.size());
    bytes.insert(bytes.end(), s.begin(), s.end());
  }
};

/// Bounds-checked reader: every accessor fails (and records a message)
/// instead of reading past the end.  Counts are checked against the
/// remaining bytes BEFORE any allocation, so a corrupt header can never
/// request a gigabyte vector from a 40-byte file.
struct Reader {
  const uint8_t* data;
  size_t size;
  size_t pos = 0;
  std::string error;

  bool fail(const char* what) {
    if (error.empty()) {
      error = std::string("corrupt snapshot: ") + what + " at byte " +
              std::to_string(pos);
    }
    return false;
  }
  bool need(size_t n) {
    if (size - pos < n) return fail("truncated data");
    return true;
  }
  bool u8(uint8_t& v) {
    if (!need(1)) return false;
    v = data[pos++];
    return true;
  }
  bool u32(uint32_t& v) {
    if (!need(4)) return false;
    v = 0;
    for (int i = 0; i < 4; ++i) v |= uint32_t{data[pos++]} << (i * 8);
    return true;
  }
  bool u64(uint64_t& v) {
    if (!need(8)) return false;
    v = 0;
    for (int i = 0; i < 8; ++i) v |= uint64_t{data[pos++]} << (i * 8);
    return true;
  }
  /// Reads a count that predicts at least `elemSize` bytes per element.
  bool count(uint64_t& n, size_t elemSize) {
    if (!u64(n)) return false;
    if (elemSize && n > (size - pos) / elemSize) return fail("oversized count");
    return true;
  }
  bool str(std::string& s) {
    uint64_t n;
    if (!count(n, 1)) return false;
    s.assign(reinterpret_cast<const char*>(data + pos),
             static_cast<size_t>(n));
    pos += static_cast<size_t>(n);
    return true;
  }
};

void writeHeader(Writer& w, SnapshotKind kind, uint64_t designHash) {
  w.u32(kSnapshotMagic);
  w.u32(kSnapshotVersion);
  w.u8(static_cast<uint8_t>(kind));
  w.u64(designHash);
}

bool readHeader(Reader& r, SnapshotKind expected, uint64_t& designHash) {
  uint32_t magic, version;
  uint8_t kind;
  if (!r.u32(magic)) return false;
  if (magic != kSnapshotMagic) return r.fail("bad magic (not a ZSNP file)");
  if (!r.u32(version)) return false;
  if (version != kSnapshotVersion) return r.fail("unsupported version");
  if (!r.u8(kind)) return false;
  if (kind > static_cast<uint8_t>(SnapshotKind::FarmState)) {
    return r.fail("unknown snapshot kind");
  }
  if (kind != static_cast<uint8_t>(expected)) {
    return r.fail("snapshot kind does not match this operation");
  }
  return r.u64(designHash);
}

void writeStats(Writer& w, const EvalStats& s) {
  w.u64(s.nodeFirings);
  w.u64(s.inputEvents);
  w.u64(s.sweeps);
  w.u64(s.netResolutions);
  w.u64(s.shortCircuitSkips);
  w.u64(s.contentionChecks);
  w.u64(s.epochResets);
  w.u64(s.watchdogMarginMin);
}

bool readStats(Reader& r, EvalStats& s) {
  return r.u64(s.nodeFirings) && r.u64(s.inputEvents) && r.u64(s.sweeps) &&
         r.u64(s.netResolutions) && r.u64(s.shortCircuitSkips) &&
         r.u64(s.contentionChecks) && r.u64(s.epochResets) &&
         r.u64(s.watchdogMarginMin);
}

void writeErrors(Writer& w, const std::vector<SimError>& errors) {
  w.u64(errors.size());
  for (const SimError& e : errors) {
    w.u64(e.cycle);
    w.u32(static_cast<uint32_t>(e.code));
    w.u32(static_cast<uint32_t>(e.lane));
    w.str(e.netName);
    w.str(e.message);
  }
}

bool readErrors(Reader& r, std::vector<SimError>& errors) {
  uint64_t n;
  // Each error is at least 8+4+4+8+8 bytes.
  if (!r.count(n, 32)) return false;
  errors.clear();
  errors.reserve(static_cast<size_t>(n));
  for (uint64_t i = 0; i < n; ++i) {
    SimError e{0, Diag::SimContention, "", "", -1};
    uint32_t code, lane;
    if (!r.u64(e.cycle) || !r.u32(code) || !r.u32(lane) || !r.str(e.netName) ||
        !r.str(e.message)) {
      return false;
    }
    e.code = static_cast<Diag>(code);
    e.lane = static_cast<int32_t>(lane);
    errors.push_back(std::move(e));
  }
  return true;
}

bool validLogic(uint8_t v) { return v <= 3; }

void writeLogicVec(Writer& w, const std::vector<Logic>& v) {
  w.u64(v.size());
  for (Logic x : v) w.u8(static_cast<uint8_t>(x));
}

bool readLogicVec(Reader& r, std::vector<Logic>& v) {
  uint64_t n;
  if (!r.count(n, 1)) return false;
  v.resize(static_cast<size_t>(n));
  for (uint64_t i = 0; i < n; ++i) {
    uint8_t b;
    if (!r.u8(b)) return false;
    if (!validLogic(b)) return r.fail("invalid logic value");
    v[i] = static_cast<Logic>(b);
  }
  return true;
}

/// Header-less SimSnapshot payload, shared between the standalone
/// SimState format and the per-lane entries of a FarmState checkpoint.
void writeSimBody(Writer& w, const SimSnapshot& snap) {
  w.u64(snap.cycle);
  w.u64(snap.rngState);
  writeStats(w, snap.stats);
  writeLogicVec(w, snap.regValues);
  writeLogicVec(w, snap.inputValues);
  w.u64(snap.inputSet.size());
  for (char c : snap.inputSet) w.u8(c ? 1 : 0);
  writeErrors(w, snap.errors);
}

bool readSimBody(Reader& r, SimSnapshot& out) {
  bool ok = r.u64(out.cycle) && r.u64(out.rngState) &&
            readStats(r, out.stats) && readLogicVec(r, out.regValues) &&
            readLogicVec(r, out.inputValues);
  if (ok) {
    uint64_t n;
    ok = r.count(n, 1);
    if (ok) {
      out.inputSet.resize(static_cast<size_t>(n));
      for (uint64_t i = 0; i < n && ok; ++i) {
        uint8_t b;
        ok = r.u8(b);
        if (ok && b > 1) ok = r.fail("invalid input-set flag");
        if (ok) out.inputSet[i] = static_cast<char>(b);
      }
    }
  }
  return ok && readErrors(r, out.errors);
}

bool writeFile(const std::string& path, const std::vector<uint8_t>& bytes,
               std::string& error) {
  // Atomic publish: write to a sibling temp file, then rename over the
  // target.  A crash mid-write leaves only the temp file behind, so a
  // reader never observes a torn checkpoint.
  std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (!f) {
    error = "cannot open '" + tmp + "' for writing";
    return false;
  }
  bool ok = bytes.empty() ||
            std::fwrite(bytes.data(), 1, bytes.size(), f) == bytes.size();
  ok = std::fflush(f) == 0 && ok;
  ok = std::fclose(f) == 0 && ok;
  if (!ok) {
    error = "short write to '" + tmp + "'";
    std::remove(tmp.c_str());
    return false;
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    error = "cannot rename '" + tmp + "' to '" + path + "'";
    std::remove(tmp.c_str());
    return false;
  }
  snapshotSaves.add();
  return true;
}

bool readFile(const std::string& path, std::vector<uint8_t>& bytes,
              std::string& error) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (!f) {
    error = "cannot open '" + path + "'";
    return false;
  }
  uint8_t buf[4096];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) {
    bytes.insert(bytes.end(), buf, buf + n);
  }
  std::fclose(f);
  return true;
}

}  // namespace

uint64_t designContentHash(const Design& design) {
  const Netlist& nl = design.netlist;
  uint64_t h = kFnvOffset;
  fnvStr(h, design.topName);
  fnv(h, nl.netCount());
  for (const Net& net : nl.nets()) {
    fnvStr(h, net.name);
    fnv(h, static_cast<uint64_t>(net.kind));
  }
  fnv(h, nl.nodeCount());
  for (NodeId ni = 0; ni < nl.nodeCount(); ++ni) {
    const Node& node = nl.node(ni);
    fnv(h, static_cast<uint64_t>(node.op));
    fnv(h, static_cast<uint64_t>(node.constVal));
    fnv(h, node.output);
    fnv(h, nl.inputs(ni).size());
    for (NetId in : nl.inputs(ni)) fnv(h, in);
  }
  // Optimized designs use different dense-net numbering, so a checkpoint
  // written at one -O level must never restore at another: fold the pass
  // pipeline's fingerprint in.  Zero (unoptimized) keeps the hash
  // backward compatible with pre-optimizer snapshots.
  if (design.optFingerprint) fnv(h, design.optFingerprint);
  return h ? h : 1;  // 0 means "don't check" in restoreSnapshot
}

bool snapshotKindOfBytes(const uint8_t* data, size_t size, SnapshotKind& out,
                         std::string& error) {
  Reader r{data, size, 0, {}};
  uint32_t magic, version;
  uint8_t kind;
  bool ok = r.u32(magic) && magic == kSnapshotMagic && r.u32(version) &&
            version == kSnapshotVersion && r.u8(kind) &&
            kind <= static_cast<uint8_t>(SnapshotKind::FarmState);
  if (!ok) {
    error = r.error.empty() ? "not a ZSNP checkpoint (bad magic, version "
                              "or kind)"
                            : r.error;
    return false;
  }
  out = static_cast<SnapshotKind>(kind);
  return true;
}

std::vector<uint8_t> snapshotToBytes(const SimSnapshot& snap) {
  ZEUS_TRACE_SPAN("checkpoint-save", "sim");
  Writer w;
  writeHeader(w, SnapshotKind::SimState, snap.designHash);
  writeSimBody(w, snap);
  return std::move(w.bytes);
}

bool snapshotFromBytes(const uint8_t* data, size_t size, SimSnapshot& out,
                       std::string& error) {
  ZEUS_TRACE_SPAN("checkpoint-load", "sim");
  Reader r{data, size, 0, {}};
  bool ok = readHeader(r, SnapshotKind::SimState, out.designHash) &&
            readSimBody(r, out);
  if (ok && r.pos != r.size) ok = r.fail("trailing bytes");
  if (!ok) {
    error = r.error.empty() ? "corrupt snapshot" : r.error;
    return false;
  }
  snapshotLoads.add();
  return true;
}

bool saveSnapshotFile(const std::string& path, const SimSnapshot& snap,
                      std::string& error) {
  return writeFile(path, snapshotToBytes(snap), error);
}

bool loadSnapshotFile(const std::string& path, SimSnapshot& out,
                      std::string& error) {
  std::vector<uint8_t> bytes;
  if (!readFile(path, bytes, error)) return false;
  return snapshotFromBytes(bytes.data(), bytes.size(), out, error);
}

std::vector<uint8_t> farmToBytes(const FarmSnapshot& snap) {
  ZEUS_TRACE_SPAN("checkpoint-save", "sim");
  Writer w;
  writeHeader(w, SnapshotKind::FarmState, snap.designHash);
  w.u64(snap.cycle);
  w.u64(snap.seed);
  w.u32(snap.totalLanes);
  w.u32(snap.lanesPerBlock);
  writeStats(w, snap.stats);
  w.u64(snap.checksums.size());
  for (uint64_t c : snap.checksums) w.u64(c);
  w.u64(snap.lanes.size());
  for (const SimSnapshot& lane : snap.lanes) writeSimBody(w, lane);
  return std::move(w.bytes);
}

bool farmFromBytes(const uint8_t* data, size_t size, FarmSnapshot& out,
                   std::string& error) {
  ZEUS_TRACE_SPAN("checkpoint-load", "sim");
  Reader r{data, size, 0, {}};
  bool ok = readHeader(r, SnapshotKind::FarmState, out.designHash) &&
            r.u64(out.cycle) && r.u64(out.seed) && r.u32(out.totalLanes) &&
            r.u32(out.lanesPerBlock) && readStats(r, out.stats);
  if (ok && out.totalLanes == 0) ok = r.fail("zero farm lanes");
  if (ok && (out.lanesPerBlock < 1 || out.lanesPerBlock > 64)) {
    ok = r.fail("bad lanes-per-block");
  }
  uint64_t n = 0;
  ok = ok && r.count(n, 8);
  if (ok && n != out.totalLanes) ok = r.fail("checksum count != lane count");
  if (ok) {
    out.checksums.resize(static_cast<size_t>(n));
    for (uint64_t i = 0; i < n && ok; ++i) ok = r.u64(out.checksums[i]);
  }
  // Each lane body is at least 16 (cycle+rng) + 64 (stats) + 3*8 (vector
  // counts) + 8 (error count) bytes.
  ok = ok && r.count(n, 112);
  if (ok && n != out.totalLanes) ok = r.fail("lane count mismatch");
  if (ok) {
    out.lanes.clear();
    out.lanes.resize(static_cast<size_t>(n));
    for (uint64_t i = 0; i < n && ok; ++i) {
      ok = readSimBody(r, out.lanes[i]);
      if (ok && out.lanes[i].cycle != out.cycle) {
        ok = r.fail("lane cycle disagrees with farm cycle");
      }
      if (ok) out.lanes[i].designHash = out.designHash;
    }
  }
  if (ok && r.pos != r.size) ok = r.fail("trailing bytes");
  if (!ok) {
    error = r.error.empty() ? "corrupt farm checkpoint" : r.error;
    return false;
  }
  snapshotLoads.add();
  return true;
}

bool saveFarmFile(const std::string& path, const FarmSnapshot& snap,
                  std::string& error) {
  return writeFile(path, farmToBytes(snap), error);
}

bool loadFarmFile(const std::string& path, FarmSnapshot& out,
                  std::string& error) {
  std::vector<uint8_t> bytes;
  if (!readFile(path, bytes, error)) return false;
  return farmFromBytes(bytes.data(), bytes.size(), out, error);
}

std::vector<uint8_t> campaignToBytes(const CampaignProgress& progress) {
  ZEUS_TRACE_SPAN("checkpoint-save", "sim");
  Writer w;
  writeHeader(w, SnapshotKind::CampaignProgress, progress.designHash);
  w.u64(progress.cycles);
  w.u64(progress.seed);
  w.u32(progress.lanes);
  w.u64(progress.totalFaults);
  w.u64(progress.nextFault);
  w.u64(progress.done.size());
  for (const FaultOutcome& o : progress.done) {
    w.u8(static_cast<uint8_t>(o.spec.kind));
    w.u32(o.spec.denseNet);
    w.u64(o.spec.fromCycle);
    w.u64(o.spec.toCycle);
    w.str(o.net);
    w.u8(static_cast<uint8_t>(o.status));
    w.u64(o.firstDetectCycle);
    w.str(o.detector);
    w.u64(o.simErrors);
  }
  return std::move(w.bytes);
}

bool campaignFromBytes(const uint8_t* data, size_t size,
                       CampaignProgress& out, std::string& error) {
  ZEUS_TRACE_SPAN("checkpoint-load", "sim");
  Reader r{data, size, 0, {}};
  bool ok = readHeader(r, SnapshotKind::CampaignProgress, out.designHash) &&
            r.u64(out.cycles) && r.u64(out.seed) && r.u32(out.lanes) &&
            r.u64(out.totalFaults) && r.u64(out.nextFault);
  if (ok && out.nextFault > out.totalFaults) ok = r.fail("bad fault cursor");
  if (ok && (out.lanes < 2 || out.lanes > 64)) ok = r.fail("bad lane count");
  uint64_t n = 0;
  // Each outcome is at least 1+4+8+8+8+1+8+8+8 bytes.
  ok = ok && r.count(n, 54);
  if (ok && n != out.nextFault) ok = r.fail("outcome count != fault cursor");
  if (ok) {
    out.done.clear();
    out.done.reserve(static_cast<size_t>(n));
    for (uint64_t i = 0; i < n && ok; ++i) {
      FaultOutcome o;
      uint8_t kind, status;
      ok = r.u8(kind) && r.u32(o.spec.denseNet) && r.u64(o.spec.fromCycle) &&
           r.u64(o.spec.toCycle) && r.str(o.net) && r.u8(status) &&
           r.u64(o.firstDetectCycle) && r.str(o.detector) &&
           r.u64(o.simErrors);
      if (ok && kind >= kFaultKindCount) ok = r.fail("invalid fault kind");
      if (ok && status > 2) ok = r.fail("invalid fault status");
      if (ok) {
        o.spec.kind = static_cast<FaultKind>(kind);
        o.status = static_cast<FaultOutcome::Status>(status);
        out.done.push_back(std::move(o));
      }
    }
  }
  if (ok && r.pos != r.size) ok = r.fail("trailing bytes");
  if (!ok) {
    error = r.error.empty() ? "corrupt campaign checkpoint" : r.error;
    return false;
  }
  snapshotLoads.add();
  return true;
}

bool saveCampaignFile(const std::string& path,
                      const CampaignProgress& progress, std::string& error) {
  return writeFile(path, campaignToBytes(progress), error);
}

bool loadCampaignFile(const std::string& path, CampaignProgress& out,
                      std::string& error) {
  std::vector<uint8_t> bytes;
  if (!readFile(path, bytes, error)) return false;
  return campaignFromBytes(bytes.data(), bytes.size(), out, error);
}

}  // namespace zeus
