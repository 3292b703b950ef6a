#include "obs/json_writer.h"

#include <cinttypes>
#include <cmath>
#include <cstdio>

namespace hfi::obs
{

void
JsonWriter::newlineIndent()
{
    if (indent_ <= 0)
        return;
    out_ += '\n';
    out_.append(static_cast<std::size_t>(indent_) * hasElement_.size(), ' ');
}

void
JsonWriter::comma()
{
    // A value directly after key() never takes a comma or a newline.
    if (pendingKey_) {
        pendingKey_ = false;
        return;
    }
    if (!hasElement_.empty()) {
        if (hasElement_.back())
            out_ += ',';
        hasElement_.back() = true;
        newlineIndent();
    }
}

JsonWriter &
JsonWriter::beginObject()
{
    comma();
    out_ += '{';
    hasElement_.push_back(false);
    return *this;
}

JsonWriter &
JsonWriter::endObject()
{
    const bool had = hasElement_.back();
    hasElement_.pop_back();
    if (had)
        newlineIndent();
    out_ += '}';
    return *this;
}

JsonWriter &
JsonWriter::beginArray()
{
    comma();
    out_ += '[';
    hasElement_.push_back(false);
    return *this;
}

JsonWriter &
JsonWriter::endArray()
{
    const bool had = hasElement_.back();
    hasElement_.pop_back();
    if (had)
        newlineIndent();
    out_ += ']';
    return *this;
}

void
JsonWriter::appendEscaped(const char *s)
{
    out_ += '"';
    for (; *s; ++s) {
        const char c = *s;
        switch (c) {
          case '"': out_ += "\\\""; break;
          case '\\': out_ += "\\\\"; break;
          case '\n': out_ += "\\n"; break;
          case '\t': out_ += "\\t"; break;
          case '\r': out_ += "\\r"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof buf, "\\u%04x",
                              static_cast<unsigned>(c));
                out_ += buf;
            } else {
                out_ += c;
            }
        }
    }
    out_ += '"';
}

JsonWriter &
JsonWriter::key(const char *k)
{
    comma();
    appendEscaped(k);
    out_ += indent_ > 0 ? ": " : ":";
    pendingKey_ = true;
    return *this;
}

JsonWriter &
JsonWriter::value(const char *s)
{
    comma();
    appendEscaped(s);
    return *this;
}

JsonWriter &
JsonWriter::value(std::uint64_t v)
{
    comma();
    char buf[24];
    std::snprintf(buf, sizeof buf, "%" PRIu64, v);
    out_ += buf;
    return *this;
}

JsonWriter &
JsonWriter::value(std::int64_t v)
{
    comma();
    char buf[24];
    std::snprintf(buf, sizeof buf, "%" PRId64, v);
    out_ += buf;
    return *this;
}

JsonWriter &
JsonWriter::value(bool v)
{
    comma();
    out_ += v ? "true" : "false";
    return *this;
}

JsonWriter &
JsonWriter::value(double v, const char *fmt)
{
    comma();
    // JSON has no NaN or infinity; printf would spell them nan/inf.
    if (!std::isfinite(v)) {
        out_ += "null";
        return *this;
    }
    char buf[64];
    std::snprintf(buf, sizeof buf, fmt, v);
    out_ += buf;
    return *this;
}

} // namespace hfi::obs
