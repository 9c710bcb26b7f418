#include "util/container.hh"

#include <fstream>
#include <sstream>

#include "util/fnv.hh"

namespace sns {

namespace {

Container
decodeContainer(std::string bytes, const ContainerFormat &format)
{
    Container c;
    c.bytes = std::move(bytes);
    const auto fault = [&c](ContainerFault f, uint64_t offset) {
        c.fault = f;
        c.offset = offset;
        return std::move(c);
    };
    if (c.bytes.size() < sizeof(format.magic))
        return fault(ContainerFault::Header, c.bytes.size());
    if (std::memcmp(c.bytes.data(), format.magic, sizeof(format.magic)))
        return fault(ContainerFault::Magic, 0);
    if (c.bytes.size() < kContainerHeaderBytes)
        return fault(ContainerFault::Header, c.bytes.size());

    ByteReader header(c.bytes.data() + 4, kContainerHeaderBytes - 4, 4);
    c.version = header.u32();
    c.length = header.u64();
    const uint64_t hash = header.u64();
    c.present = c.bytes.size() - kContainerHeaderBytes;
    if (c.version < format.min_version || c.version > format.max_version)
        return fault(ContainerFault::Version, 4);
    if (c.length > c.present)
        return fault(ContainerFault::Length, 8);
    if (fnv1a(c.bytes.data() + kContainerHeaderBytes, c.length) != hash)
        return fault(ContainerFault::Hash, 16);
    return c;
}

} // namespace

Container
readContainer(const std::string &path, const ContainerFormat &format)
{
    std::optional<std::string> bytes = readFileBytes(path);
    if (bytes)
        return decodeContainer(std::move(*bytes), format);
    Container unreadable;
    unreadable.fault = ContainerFault::Open;
    return unreadable;
}

std::optional<std::string>
readFileBytes(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return std::nullopt;
    std::ostringstream out;
    out << in.rdbuf();
    return std::move(out).str();
}

std::array<char, kContainerHeaderBytes>
containerHeader(const ContainerFormat &format, const void *payload,
                size_t size)
{
    std::array<char, kContainerHeaderBytes> header;
    const uint64_t length = size;
    const uint64_t hash = fnv1a(payload, size);
    std::memcpy(header.data(), format.magic, 4);
    std::memcpy(header.data() + 4, &format.max_version, 4);
    std::memcpy(header.data() + 8, &length, 8);
    std::memcpy(header.data() + 16, &hash, 8);
    return header;
}

void
ByteWriter::bytes(const void *data, size_t n)
{
    // Out of line: GCC 12 reports false -Wstringop-overflow hits when
    // this resize + memcpy is inlined with a constant size.
    const size_t at = buf_.size();
    buf_.resize(at + n);
    if (n > 0)
        std::memcpy(buf_.data() + at, data, n);
}

} // namespace sns
