#include "nn/serialize.hh"

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

namespace sns::nn {

using tensor::Tensor;
using tensor::Variable;

namespace {

constexpr char kWeightMagic[4] = {'S', 'N', 'S', 'W'};

} // namespace

void
CheckpointWriter::bytes(const void *data, size_t size)
{
    out_.write(static_cast<const char *>(data),
               static_cast<std::streamsize>(size));
}

void
CheckpointWriter::str(const std::string &value)
{
    u64(value.size());
    bytes(value.data(), value.size());
}

void
CheckpointWriter::tensor(const Tensor &value)
{
    u32(static_cast<uint32_t>(value.ndim()));
    for (int d : value.shape()) {
        const int32_t dim = d;
        bytes(&dim, sizeof(dim));
    }
    bytes(value.data(), value.numel() * sizeof(float));
}

CheckpointReader::CheckpointReader(std::string_view payload,
                                   std::string where, uint64_t base)
    : ByteReader(payload.data(), payload.size(), base,
                 [](const ByteReader &in, const void *self) {
                     throw SerializeError(
                         "truncated payload in " +
                         static_cast<const CheckpointReader *>(self)
                             ->where_ +
                         " (at byte " + std::to_string(in.failOffset()) +
                         ")");
                 },
                 this),
      where_(std::move(where))
{
}

std::string
CheckpointReader::str()
{
    const uint64_t size = u64();
    const uint8_t *data = bytes(size);
    return std::string(reinterpret_cast<const char *>(data), size);
}

void
CheckpointReader::tensor(Tensor &value)
{
    if (u32() != static_cast<uint32_t>(value.ndim()))
        throw SerializeError("tensor rank mismatch in " + where_);
    for (int d : value.shape()) {
        if (i32() != d)
            throw SerializeError("tensor shape mismatch in " + where_);
    }
    const size_t size = value.numel() * sizeof(float);
    std::memcpy(value.data(), bytes(size), size);
}

void
saveParameters(CheckpointWriter &out, const std::vector<Variable> &params)
{
    out.bytes(kWeightMagic, sizeof(kWeightMagic));
    out.u32(static_cast<uint32_t>(params.size()));
    for (const auto &param : params)
        out.tensor(param.value());
}

void
loadParameters(CheckpointReader &in, std::vector<Variable> &params)
{
    if (std::memcmp(in.bytes(sizeof(kWeightMagic)), kWeightMagic,
                    sizeof(kWeightMagic)) != 0)
        throw SerializeError("bad magic in weight block: " + in.where());
    const uint32_t count = in.u32();
    if (count != params.size()) {
        throw SerializeError(
            "weight block has " + std::to_string(count) +
            " tensors, model expects " + std::to_string(params.size()) +
            " (" + in.where() + ")");
    }
    for (auto &param : params)
        in.tensor(param.valueMutable());
}

void
saveParameters(const std::string &path, const std::vector<Variable> &params)
{
    std::ostringstream out;
    CheckpointWriter writer(out);
    saveParameters(writer, params);
    writeFile(path, out.str());
}

void
loadParameters(const std::string &path, std::vector<Variable> &params)
{
    const std::string bytes = readFile(path);
    CheckpointReader in(bytes, path, 0);
    loadParameters(in, params);
}

void
writeFile(const std::string &path, std::string_view bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    if (!out)
        throw SerializeError("cannot open for writing: " + path);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    out.flush();
    if (!out)
        throw SerializeError("short write to " + path);
}

std::string
readFile(const std::string &path)
{
    std::optional<std::string> bytes = readFileBytes(path);
    if (!bytes)
        throw SerializeError("cannot open " + path);
    return std::move(*bytes);
}

void
commitCheckpoint(const std::string &path, std::string_view payload)
{
    const std::string tmp = path + ".tmp";
    const auto header =
        containerHeader(kCheckpointFormat, payload.data(), payload.size());
    std::string file(header.begin(), header.end());
    file.append(payload);
    writeFile(tmp, file);
    std::error_code ec;
    std::filesystem::rename(tmp, path, ec);
    if (ec) {
        throw SerializeError("cannot rename " + tmp + " onto " + path +
                             ": " + ec.message());
    }
}

std::string
readCheckpointPayload(const std::string &path)
{
    Container file = readContainer(path, kCheckpointFormat);
    switch (file.fault) {
    case ContainerFault::None:
        break;
    case ContainerFault::Open:
        throw SerializeError("cannot open checkpoint: " + path);
    case ContainerFault::Header:
        throw SerializeError("truncated checkpoint header in " + path);
    case ContainerFault::Magic:
        throw SerializeError("bad checkpoint magic in " + path);
    case ContainerFault::Version:
        throw SerializeError(
            "unsupported checkpoint version " +
            std::to_string(file.version) + " in " + path + " (expected " +
            std::to_string(kCheckpointFormat.max_version) + ")");
    case ContainerFault::Length:
        throw SerializeError(
            "checkpoint truncated: " + path + " declares " +
            std::to_string(file.length) + " payload bytes but holds " +
            std::to_string(file.present));
    case ContainerFault::Hash:
        throw SerializeError("checkpoint payload hash mismatch in " +
                             path + " (file is corrupt)");
    }
    file.bytes.erase(0, kContainerHeaderBytes);
    file.bytes.resize(file.length);
    return std::move(file.bytes);
}

std::vector<std::string>
listCheckpoints(const std::string &dir)
{
    std::vector<std::string> found;
    std::error_code ec;
    for (const auto &entry :
         std::filesystem::directory_iterator(dir, ec)) {
        const std::string name = entry.path().filename().string();
        if (name.rfind("ckpt-", 0) == 0 &&
            name.size() > 10 &&
            name.compare(name.size() - 5, 5, ".ckpt") == 0)
            found.push_back(entry.path().string());
    }
    // Zero-padded epoch numbers make lexicographic == numeric order.
    std::sort(found.begin(), found.end());
    return found;
}

void
pruneCheckpoints(const std::string &dir, size_t keep)
{
    if (keep == 0)
        return;
    const auto found = listCheckpoints(dir);
    // Retention counts EPOCHS, not files: a distributed run commits one
    // shard per rank per epoch (ckpt-000123-r01of04.ckpt), and deleting
    // part of a shard set would leave an unresumable remainder. Group
    // by the shared ckpt-NNNNNN prefix and drop whole groups.
    std::vector<std::string> groups; // ascending, like `found`
    const auto groupOf = [](const std::string &file) {
        return std::filesystem::path(file)
            .filename()
            .string()
            .substr(0, 11); // "ckpt-NNNNNN"
    };
    for (const auto &file : found) {
        if (groups.empty() || groups.back() != groupOf(file))
            groups.push_back(groupOf(file));
    }
    if (groups.size() <= keep)
        return;
    const std::string &oldest_kept = groups[groups.size() - keep];
    for (const auto &file : found) {
        if (groupOf(file) >= oldest_kept)
            break; // sorted: everything from here on survives
        std::error_code ec;
        std::filesystem::remove(file, ec); // best-effort cleanup
    }
}

} // namespace sns::nn
