#include "sim/checkpoint.h"

#include <algorithm>

#include "util/atomic_file.h"
#include "util/chaos.h"

namespace aegis::sim {

namespace {

constexpr std::string_view kMagic = "AEGISCKP";
constexpr std::size_t kHeaderBytes = 8 + 4 + 8 + 8;

void
putBase(const StudyResult &s, BinaryWriter &w)
{
    w.str(s.scheme);
    w.u64(s.overheadBits);
    w.u64(s.blockBits);
    s.metrics.serialize(w);
}

bool
getBase(StudyResult &s, BinaryReader &r)
{
    s.scheme = r.str();
    s.overheadBits = static_cast<std::size_t>(r.u64());
    s.blockBits = static_cast<std::size_t>(r.u64());
    return s.metrics.deserialize(r);
}

} // namespace

void
serializeStudy(const PageStudy &s, BinaryWriter &w)
{
    putBase(s, w);
    s.recoverableFaults.serialize(w);
    s.pageLifetime.serialize(w);
    s.repartitions.serialize(w);
    s.survival.serialize(w);
}

void
serializeStudy(const BlockStudy &s, BinaryWriter &w)
{
    putBase(s, w);
    s.blockLifetime.serialize(w);
    s.faultsAtDeath.serialize(w);
}

void
serializeStudy(const SurvivalStudy &s, BinaryWriter &w)
{
    putBase(s, w);
    s.survival.serialize(w);
}

bool
deserializeStudy(PageStudy &s, BinaryReader &r)
{
    return getBase(s, r) && s.recoverableFaults.deserialize(r) &&
           s.pageLifetime.deserialize(r) &&
           s.repartitions.deserialize(r) && s.survival.deserialize(r);
}

bool
deserializeStudy(BlockStudy &s, BinaryReader &r)
{
    return getBase(s, r) && s.blockLifetime.deserialize(r) &&
           s.faultsAtDeath.deserialize(r);
}

bool
deserializeStudy(SurvivalStudy &s, BinaryReader &r)
{
    return getBase(s, r) && s.survival.deserialize(r);
}

std::string
encodeCheckpoint(const CheckpointData &data)
{
    BinaryWriter payload;
    payload.str(data.program);
    payload.u64(data.flagsFingerprint);
    payload.u64(data.masterSeed);
    payload.u32(static_cast<std::uint32_t>(data.completed.size()));
    for (const CheckpointUnit &unit : data.completed) {
        payload.u32(unit.index);
        payload.u64(unit.fingerprint);
        payload.u8(unit.kind);
        payload.str(unit.blob);
    }
    payload.u8(data.inFlight.has_value() ? 1 : 0);
    if (data.inFlight.has_value()) {
        const CheckpointPartial &p = *data.inFlight;
        payload.u32(p.index);
        payload.u64(p.fingerprint);
        payload.u8(p.kind);
        payload.u64(p.items);
        payload.u64(p.grain);
        payload.u32(static_cast<std::uint32_t>(p.chunks.size()));
        for (const CheckpointChunk &c : p.chunks) {
            payload.u32(c.index);
            payload.str(c.blob);
        }
    }

    const std::string body = payload.take();
    BinaryWriter header;
    for (const char c : kMagic)
        header.u8(static_cast<std::uint8_t>(c));
    header.u32(kCheckpointVersion);
    header.u64(body.size());
    header.u64(fnv1a64(body));
    return header.take() + body;
}

Expected<CheckpointData>
decodeCheckpoint(std::string_view bytes, const std::string &path)
{
    using Result = Expected<CheckpointData>;
    if (bytes.size() < kHeaderBytes ||
        bytes.substr(0, kMagic.size()) != kMagic)
        return Result::failure("`" + path +
                               "' is not an aegis checkpoint "
                               "(bad magic)");
    BinaryReader header(bytes.substr(kMagic.size(),
                                     kHeaderBytes - kMagic.size()));
    const std::uint32_t version = header.u32();
    const std::uint64_t payloadSize = header.u64();
    const std::uint64_t checksum = header.u64();
    if (version != kCheckpointVersion)
        return Result::failure(
            "checkpoint `" + path + "' has format version " +
            std::to_string(version) + "; this build reads version " +
            std::to_string(kCheckpointVersion));
    const std::string_view payload = bytes.substr(kHeaderBytes);
    if (payload.size() != payloadSize)
        return Result::failure(
            "checkpoint `" + path + "' is truncated: header promises " +
            std::to_string(payloadSize) + " payload bytes, file holds " +
            std::to_string(payload.size()));
    if (fnv1a64(payload) != checksum)
        return Result::failure("checkpoint `" + path +
                               "' failed its checksum (corrupt file)");

    const auto corrupt = [&path] {
        return Result::failure("checkpoint `" + path +
                               "' has a corrupt payload");
    };
    BinaryReader r(payload);
    CheckpointData data;
    data.program = r.str();
    data.flagsFingerprint = r.u64();
    data.masterSeed = r.u64();
    const std::uint32_t units = r.u32();
    if (!r.ok())
        return corrupt();
    for (std::uint32_t i = 0; i < units; ++i) {
        CheckpointUnit unit;
        unit.index = r.u32();
        unit.fingerprint = r.u64();
        unit.kind = r.u8();
        unit.blob = r.str();
        if (!r.ok())
            return corrupt();
        data.completed.push_back(std::move(unit));
    }
    const std::uint8_t hasInFlight = r.u8();
    if (!r.ok() || hasInFlight > 1)
        return corrupt();
    if (hasInFlight == 1) {
        CheckpointPartial p;
        p.index = r.u32();
        p.fingerprint = r.u64();
        p.kind = r.u8();
        p.items = r.u64();
        p.grain = r.u64();
        const std::uint32_t chunks = r.u32();
        if (!r.ok())
            return corrupt();
        for (std::uint32_t j = 0; j < chunks; ++j) {
            CheckpointChunk c;
            c.index = r.u32();
            c.blob = r.str();
            if (!r.ok())
                return corrupt();
            p.chunks.push_back(std::move(c));
        }
        data.inFlight = std::move(p);
    }
    if (!r.ok() || !r.atEnd())
        return corrupt();
    return data;
}

Expected<CheckpointData>
loadCheckpointFile(const std::string &path)
{
    Expected<std::string> bytes = readFile(path);
    if (!bytes.ok())
        return Expected<CheckpointData>::failure(bytes.error());
    return decodeCheckpoint(*bytes, path);
}

CheckpointSession::CheckpointSession(std::string path,
                                     std::string program,
                                     std::uint64_t flagsFingerprint,
                                     std::uint64_t masterSeed)
    : filePath(std::move(path))
{
    current.program = std::move(program);
    current.flagsFingerprint = flagsFingerprint;
    current.masterSeed = masterSeed;
}

Status
CheckpointSession::resume()
{
    Expected<CheckpointData> loaded = loadCheckpointFile(filePath);
    if (!loaded.ok())
        return Status::failure("cannot resume: " + loaded.error());
    if (loaded->program != current.program)
        return Status::failure(
            "cannot resume: checkpoint `" + filePath +
            "' was written by `" + loaded->program + "', not `" +
            current.program + "'");
    if (loaded->flagsFingerprint != current.flagsFingerprint)
        return Status::failure(
            "cannot resume: checkpoint `" + filePath +
            "' was written with different result-affecting flags; "
            "rerun with the original flags, or start fresh without "
            "--resume");
    if (loaded->masterSeed != current.masterSeed)
        return Status::failure(
            "cannot resume: checkpoint `" + filePath +
            "' was written with --seed " +
            std::to_string(loaded->masterSeed) + ", not --seed " +
            std::to_string(current.masterSeed));
    restoredFile = std::move(*loaded);
    haveRestored = true;
    return Status();
}

CheckpointSession::UnitResume
CheckpointSession::beginUnit(std::uint64_t fingerprint, StudyKind kind,
                             std::uint64_t items, std::uint64_t grain)
{
    const std::lock_guard<std::mutex> lock(mu);
    AEGIS_ASSERT(!current.inFlight.has_value(),
                 "beginUnit while a unit is still open");
    const std::uint32_t index = nextUnit++;
    const auto stale = [&](const std::string &what) {
        throw ConfigError(
            "cannot resume: checkpoint `" + filePath + "' records " +
            what + " for sweep #" + std::to_string(index) +
            " — it belongs to a different run; delete the checkpoint "
            "or rerun with the original configuration");
    };

    UnitResume out;
    if (haveRestored) {
        const auto done = std::find_if(
            restoredFile.completed.begin(), restoredFile.completed.end(),
            [index](const CheckpointUnit &u) { return u.index == index; });
        if (done != restoredFile.completed.end()) {
            if (done->fingerprint != fingerprint ||
                done->kind != static_cast<std::uint8_t>(kind))
                stale("a different configuration");
            current.completed.push_back(*done);
            out.completed = true;
            out.unitBlob = done->blob;
            return out;
        }
        const std::optional<CheckpointPartial> &part =
            restoredFile.inFlight;
        if (part.has_value() && part->index == index) {
            if (part->fingerprint != fingerprint ||
                part->kind != static_cast<std::uint8_t>(kind))
                stale("a different configuration");
            if (part->items != items || part->grain != grain)
                stale("a different chunk grid");
            out.chunks = part->chunks;
        }
    }

    CheckpointPartial open;
    open.index = index;
    open.fingerprint = fingerprint;
    open.kind = static_cast<std::uint8_t>(kind);
    open.items = items;
    open.grain = grain;
    open.chunks = out.chunks;
    current.inFlight = std::move(open);
    return out;
}

void
CheckpointSession::chunkDone(std::uint32_t chunk, std::string blob)
{
    {
        const std::lock_guard<std::mutex> lock(mu);
        AEGIS_ASSERT(current.inFlight.has_value(),
                     "chunkDone without an open unit");
        current.inFlight->chunks.push_back(
            CheckpointChunk{chunk, std::move(blob)});
        ++sinceSnapshot;
        if (snapshotEvery != 0 && sinceSnapshot >= snapshotEvery) {
            sinceSnapshot = 0;
            const Status s = writeSnapshotLocked();
            if (!s.ok())
                warnWriteFailure(s);
        }
    }
    // The injected kill-point sits after the snapshot decision so
    // that with --checkpoint-every 1 the kill never loses a chunk.
    chaosNoteChunkComplete();
}

void
CheckpointSession::unitDone(std::string blob)
{
    const std::lock_guard<std::mutex> lock(mu);
    AEGIS_ASSERT(current.inFlight.has_value(),
                 "unitDone without an open unit");
    const CheckpointPartial &open = *current.inFlight;
    current.completed.push_back(CheckpointUnit{
        open.index, open.fingerprint, open.kind, std::move(blob)});
    current.inFlight.reset();
    sinceSnapshot = 0;
    const Status s = writeSnapshotLocked();
    if (!s.ok())
        warnWriteFailure(s);
}

Status
CheckpointSession::writeSnapshot()
{
    const std::lock_guard<std::mutex> lock(mu);
    return writeSnapshotLocked();
}

Status
CheckpointSession::writeSnapshotLocked()
{
    return atomicWriteFile(filePath, encodeCheckpoint(current));
}

void
CheckpointSession::warnWriteFailure(const Status &s)
{
    // Losing a snapshot must not kill the sweep it protects; warn
    // once (chaos injection can fail every write) and keep going.
    if (warnedWriteFailure)
        return;
    warnedWriteFailure = true;
    std::fprintf(stderr, "warning: checkpoint write failed: %s\n",
                 s.error().c_str());
}

void
CheckpointSession::noteRestoredMetrics(const obs::Metrics &m)
{
    const std::lock_guard<std::mutex> lock(mu);
    restored.merge(m);
}

RunContext &
activeRunContext()
{
    static RunContext context;
    return context;
}

} // namespace aegis::sim
