#include "workloads/faas_workloads.h"

#include <algorithm>

#include "workloads/crypto.h"
#include "workloads/support.h"

namespace hfi::workloads::faas
{

std::string
makeXmlDocument(std::uint64_t records, std::uint32_t seed)
{
    Rng rng(seed);
    std::string xml = "<orders>";
    for (std::uint64_t i = 0; i < records; ++i) {
        xml += "<order><id>" + std::to_string(rng.nextBelow(1000000)) +
               "</id><qty>" + std::to_string(1 + rng.nextBelow(99)) +
               "</qty><price>" + std::to_string(rng.nextBelow(10000)) +
               "</price></order>";
    }
    xml += "</orders>";
    return xml;
}

std::uint64_t
xmlToJson(sfi::Sandbox &s, std::uint64_t in_off, std::uint64_t in_len)
{
    Arena arena(s, in_off + in_len + 8);
    const std::uint64_t out_len = in_len * 2 + 64;
    const std::uint64_t out = arena.alloc(out_len);
    auto in = s.span<std::uint8_t>(in_off, in_len);
    auto out_bytes = s.span<std::uint8_t>(out, out_len);

    Checksum sum;
    std::uint64_t at = 0;
    auto emit = [&](char c) {
        out_bytes.store(at++, static_cast<std::uint8_t>(c));
        sum.mix(static_cast<std::uint8_t>(c));
    };

    // Event-driven XML scan: tags become JSON keys, text becomes values.
    std::uint64_t i = 0;
    int depth = 0;
    bool first_at_depth[16] = {};
    while (i < in_len) {
        const char c = static_cast<char>(in.load(i));
        s.chargeOps(4);
        if (c == '<') {
            // A '<' ending the input has no lookahead byte to read.
            const bool closing =
                i + 1 < in_len && static_cast<char>(in.load(i + 1)) == '/';
            // Scan the tag name.
            std::uint64_t j = i + (closing ? 2 : 1);
            std::string tag;
            while (j < in_len) {
                const char t = static_cast<char>(in.load(j));
                s.chargeOps(3);
                if (t == '>')
                    break;
                tag += t;
                ++j;
            }
            if (closing) {
                emit('}');
                --depth;
            } else {
                if (depth > 0 && !first_at_depth[depth])
                    emit(',');
                first_at_depth[depth] = false;
                emit('"');
                for (char t : tag)
                    emit(t);
                emit('"');
                emit(':');
                emit('{');
                ++depth;
                if (depth < 16)
                    first_at_depth[depth] = true;
            }
            i = j + 1;
        } else {
            // Text content: emit as a "value" field.
            if (depth < 16 && !first_at_depth[depth])
                emit(',');
            if (depth < 16)
                first_at_depth[depth] = false;
            emit('"');
            emit('v');
            emit('"');
            emit(':');
            while (i < in_len) {
                const char t = static_cast<char>(in.load(i));
                s.chargeOps(3);
                if (t == '<')
                    break;
                emit(t);
                ++i;
            }
        }
    }
    sum.mix(at);
    return sum.value();
}

std::uint64_t
classifyImage(sfi::Sandbox &s, std::uint64_t img_off, std::uint32_t side,
              std::uint32_t seed)
{
    // Conv(3x3, 8 filters) -> ReLU -> 2x2 max pool -> dense(10), all in
    // 16.16 fixed point with weights in sandbox memory.
    Arena arena(s, img_off + static_cast<std::uint64_t>(side) * side + 8);
    const std::uint32_t filters = 8;
    const std::uint64_t conv_w = arena.alloc(filters * 9 * 4);
    const std::uint64_t fmap =
        arena.alloc(static_cast<std::uint64_t>(filters) * side * side * 4);
    const std::uint32_t pooled_side = side / 2;
    const std::uint64_t pooled = arena.alloc(
        static_cast<std::uint64_t>(filters) * pooled_side * pooled_side * 4);
    const std::uint64_t plane = static_cast<std::uint64_t>(side) * side;
    const std::uint64_t pooled_plane =
        static_cast<std::uint64_t>(pooled_side) * pooled_side;
    auto img = s.span<std::uint8_t>(img_off, plane);
    auto weights = s.span<std::int32_t>(conv_w, filters * 9);
    auto features = s.span<std::int32_t>(fmap, filters * plane);
    auto pooled_features =
        s.span<std::int32_t>(pooled, filters * pooled_plane);

    Rng rng(seed);
    for (std::uint64_t i = 0; i < filters * 9; ++i) {
        weights.store(i,
                      static_cast<std::int32_t>(rng.nextBelow(512)) - 256);
    }

    // Convolution.
    for (std::uint32_t f = 0; f < filters; ++f) {
        for (std::uint32_t y = 1; y + 1 < side; ++y) {
            for (std::uint32_t x = 1; x + 1 < side; ++x) {
                std::int64_t acc = 0;
                for (std::uint32_t ky = 0; ky < 3; ++ky) {
                    for (std::uint32_t kx = 0; kx < 3; ++kx) {
                        const std::uint8_t px = img.load(
                            static_cast<std::uint64_t>(y + ky - 1) * side +
                            (x + kx - 1));
                        const std::int32_t w =
                            weights.load(f * 9 + ky * 3 + kx);
                        acc += static_cast<std::int64_t>(px) * w;
                    }
                }
                const std::int32_t relu = static_cast<std::int32_t>(
                    std::max<std::int64_t>(acc >> 4, 0));
                features.store(f * plane +
                                   static_cast<std::uint64_t>(y) * side + x,
                               relu);
                s.chargeOps(9 * 3 + 4);
            }
        }
    }

    // 2x2 max pool.
    for (std::uint32_t f = 0; f < filters; ++f) {
        for (std::uint32_t y = 0; y < pooled_side; ++y) {
            for (std::uint32_t x = 0; x < pooled_side; ++x) {
                std::int32_t best = 0;
                for (std::uint32_t dy = 0; dy < 2; ++dy) {
                    for (std::uint32_t dx = 0; dx < 2; ++dx) {
                        best = std::max(
                            best,
                            features.load(
                                f * plane +
                                static_cast<std::uint64_t>(2 * y + dy) *
                                    side +
                                2 * x + dx));
                    }
                }
                pooled_features.store(
                    f * pooled_plane +
                        static_cast<std::uint64_t>(y) * pooled_side + x,
                    best);
                s.chargeOps(8);
            }
        }
    }

    // Dense layer to 10 logits; weights derived on the fly from the rng
    // stream (kept in registers — a weight *matrix* would dwarf memory).
    Rng dense_rng(seed ^ 0xd15ea5e);
    std::int64_t logits[10] = {};
    for (std::uint64_t i = 0; i < filters * pooled_plane; ++i) {
        const std::int32_t v = pooled_features.load(i);
        const std::uint64_t w = dense_rng.next();
        for (int k = 0; k < 10; ++k) {
            logits[k] += static_cast<std::int64_t>(v) *
                         (static_cast<std::int32_t>((w >> (6 * k)) & 63) - 32);
        }
        s.chargeOps(22);
    }

    int winner = 0;
    Checksum sum;
    for (int k = 0; k < 10; ++k) {
        if (logits[k] > logits[winner])
            winner = k;
        sum.mix(static_cast<std::uint64_t>(logits[k]));
    }
    sum.mix(static_cast<std::uint64_t>(winner));
    return sum.value();
}

std::uint64_t
checkSha256(sfi::Sandbox &s, std::uint64_t in_off, std::uint64_t in_len,
            std::uint64_t digest_off)
{
    Arena arena(s, digest_off + 64);
    const std::uint64_t computed = arena.alloc(32);
    const std::uint64_t digest_sum =
        crypto::sha256Sandboxed(s, in_off, in_len, computed);

    bool match = true;
    for (int i = 0; i < 32; ++i) {
        if (s.load<std::uint8_t>(computed + i) !=
            s.load<std::uint8_t>(digest_off + i))
            match = false;
        s.chargeOps(3);
    }
    Checksum sum;
    sum.mix(digest_sum);
    sum.mix(match ? 1 : 0);
    return sum.value();
}

std::string
makeHtmlTemplate(std::uint32_t seed)
{
    (void)seed;
    return "<html><head><title>{{title}}</title></head><body>"
           "<h1>{{title}}</h1><p>Hello {{user}}, your balance is "
           "{{balance}}.</p><table>{{#rows}}<tr><td>{{item}}</td>"
           "<td>{{count}}</td><td>{{total}}</td></tr>{{/rows}}"
           "</table><footer>{{footer}}</footer></body></html>";
}

std::uint64_t
renderTemplate(sfi::Sandbox &s, std::uint64_t tpl_off, std::uint64_t tpl_len,
               std::uint64_t rows, std::uint32_t seed)
{
    Arena arena(s, tpl_off + tpl_len + 8);
    const std::uint64_t out_len = tpl_len + rows * 96 + 512;
    const std::uint64_t out = arena.alloc(out_len);
    auto tpl = s.span<std::uint8_t>(tpl_off, tpl_len);
    auto out_bytes = s.span<std::uint8_t>(out, out_len);

    Rng rng(seed);
    Checksum sum;
    std::uint64_t at = 0;
    auto emit = [&](char c) {
        out_bytes.store(at++, static_cast<std::uint8_t>(c));
        sum.mix(static_cast<std::uint8_t>(c));
    };
    auto emitStr = [&](const std::string &str) {
        for (char c : str)
            emit(c);
    };

    auto substitute = [&](const std::string &name) {
        if (name == "title")
            emitStr("Order Summary");
        else if (name == "user")
            emitStr("tenant-" + std::to_string(rng.nextBelow(1000)));
        else if (name == "balance")
            emitStr(std::to_string(rng.nextBelow(100000)));
        else if (name == "item")
            emitStr("sku-" + std::to_string(rng.nextBelow(10000)));
        else if (name == "count")
            emitStr(std::to_string(1 + rng.nextBelow(9)));
        else if (name == "total")
            emitStr(std::to_string(rng.nextBelow(50000)));
        else if (name == "footer")
            emitStr("generated in-sandbox");
        else
            emitStr("?");
    };

    // One-pass renderer with loop-section expansion.
    std::uint64_t i = 0;
    std::uint64_t loop_start = 0;
    std::uint64_t loop_remaining = 0;
    while (i < tpl_len) {
        const char c = static_cast<char>(tpl.load(i));
        s.chargeOps(4);
        if (c != '{' || i + 1 >= tpl_len ||
            static_cast<char>(tpl.load(i + 1)) != '{') {
            emit(c);
            ++i;
            continue;
        }
        // Read the {{token}}.
        std::uint64_t j = i + 2;
        std::string token;
        while (j + 1 < tpl_len) {
            const char t = static_cast<char>(tpl.load(j));
            s.chargeOps(3);
            if (t == '}' && static_cast<char>(tpl.load(j + 1)) == '}')
                break;
            token += t;
            ++j;
        }
        i = j + 2;
        if (!token.empty() && token[0] == '#') {
            loop_start = i;
            loop_remaining = rows;
        } else if (!token.empty() && token[0] == '/') {
            if (loop_remaining > 1) {
                --loop_remaining;
                i = loop_start;
            }
        } else {
            substitute(token);
        }
    }
    sum.mix(at);
    return sum.value();
}

} // namespace hfi::workloads::faas
