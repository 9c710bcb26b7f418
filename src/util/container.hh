/**
 * @file
 * The one container codec for the 24-byte SNSC/SNSP header
 * (docs/training.md §"Container format") and the one bounded byte
 * reader under every payload decoder. A read past the end touches
 * nothing: it latches the failure and its file offset, and returns
 * zero. Runtime readers pass an OnFail hook that throws their own
 * error type; the linters inspect failed() instead.
 */

#ifndef SNS_UTIL_CONTAINER_HH
#define SNS_UTIL_CONTAINER_HH

#include <array>
#include <bit>
#include <cstdint>
#include <cstring>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace sns {

static_assert(std::endian::native == std::endian::little,
              "the container and wire formats are little-endian");

inline constexpr size_t kContainerHeaderBytes = 24;

/** A container kind; readers accept [min_version, max_version] and
 * writers emit max_version. */
struct ContainerFormat
{
    char magic[4];
    uint32_t min_version;
    uint32_t max_version;
};

inline constexpr ContainerFormat kCheckpointFormat{{'S', 'N', 'S', 'C'}, 1,
                                                   1};
/** Version 1 plans lack the quantization side table. */
inline constexpr ContainerFormat kPlanFormat{{'S', 'N', 'S', 'P'}, 1, 2};

/** The checks, in the order they run; Header means fewer than 24 (or
 * than 4 magic) bytes, Length a declared length past the file end. */
enum class ContainerFault { None, Open, Header, Magic, Version, Length, Hash };

struct Container
{
    ContainerFault fault = ContainerFault::None;
    uint64_t offset = 0; ///< of the failed field (file size for Header)
    uint32_t version = 0;
    uint64_t length = 0;  ///< declared payload bytes
    uint64_t present = 0; ///< payload bytes the file holds
    std::string bytes;    ///< the whole file

    std::string_view
    payload() const
    {
        return {bytes.data() + kContainerHeaderBytes, length};
    }
};

/** Read a container by the file's real size and run the checks; Open
 * when the file cannot be opened. */
Container readContainer(const std::string &path,
                        const ContainerFormat &format);

/** The bytes a file actually holds; nullopt if it cannot be opened. */
std::optional<std::string> readFileBytes(const std::string &path);

/** The header for `size` payload bytes, at format.max_version. */
std::array<char, kContainerHeaderBytes>
containerHeader(const ContainerFormat &format, const void *payload,
                size_t size);

/** Bounded reader over (data, size); `base` is the file offset of
 * data[0], so offsets are absolute. */
class ByteReader
{
  public:
    /** Called at the first failed read, with the hook's context. */
    using OnFail = void (*)(const ByteReader &reader, const void *context);

    ByteReader(const void *data, size_t size, uint64_t base = 0,
               OnFail on_fail = nullptr, const void *context = nullptr)
        : data_(static_cast<const uint8_t *>(data)), size_(size),
          base_(base), on_fail_(on_fail), context_(context)
    {
    }

    template <typename T>
    T
    read()
    {
        static_assert(std::is_arithmetic_v<T>);
        T value{};
        if (const uint8_t *p = bytes(sizeof(T)))
            std::memcpy(&value, p, sizeof(T));
        return value;
    }

    uint8_t u8() { return read<uint8_t>(); }
    uint32_t u32() { return read<uint32_t>(); }
    uint64_t u64() { return read<uint64_t>(); }
    int32_t i32() { return read<int32_t>(); }
    int64_t i64() { return read<int64_t>(); }
    float f32() { return read<float>(); }
    double f64() { return read<double>(); }

    /** The next n bytes in place, or nullptr if fewer remain. */
    const uint8_t *
    bytes(uint64_t n)
    {
        if (failed_ || n > size_ - pos_) {
            fail(pos_);
            return nullptr;
        }
        pos_ += n;
        return data_ + pos_ - n;
    }

    /** A u32 element count, failing (at the count) when its elements,
     * at least `elem_bytes` > 0 each, cannot fit in the bytes left. */
    uint32_t
    count(size_t elem_bytes)
    {
        const size_t at = pos_;
        const uint32_t n = u32();
        if (n > (size_ - pos_) / elem_bytes) {
            fail(at);
            return 0;
        }
        return n;
    }

    bool failed() const { return failed_; }
    size_t remaining() const { return size_ - pos_; }
    uint64_t offset() const { return base_ + pos_; }
    uint64_t failOffset() const { return base_ + fail_at_; }

  private:
    void
    fail(size_t at)
    {
        if (failed_)
            return;
        fail_at_ = at;
        failed_ = true;
        if (on_fail_ != nullptr)
            on_fail_(*this, context_);
    }

    const uint8_t *data_;
    size_t size_;
    uint64_t base_;
    OnFail on_fail_;
    const void *context_;
    size_t pos_ = 0;
    size_t fail_at_ = 0;
    bool failed_ = false;
};

/** Append-only writer, ByteReader's twin. */
class ByteWriter
{
  public:
    template <typename T>
    void
    write(T value)
    {
        static_assert(std::is_arithmetic_v<T>);
        bytes(&value, sizeof(T));
    }

    void u8(uint8_t v) { buf_.push_back(v); }
    void u32(uint32_t v) { write(v); }
    void u64(uint64_t v) { write(v); }
    void f64(double v) { write(v); }
    void bytes(const void *data, size_t n);

    const std::vector<uint8_t> &buffer() const { return buf_; }
    std::vector<uint8_t> take() { return std::move(buf_); }

  private:
    std::vector<uint8_t> buf_;
};

} // namespace sns

#endif // SNS_UTIL_CONTAINER_HH
