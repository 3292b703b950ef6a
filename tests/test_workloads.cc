/**
 * @file
 * Functional tests for the workload library: known-answer crypto
 * vectors, codec round trips, and the backbone property that every
 * kernel's checksum is identical across isolation backends (isolation
 * must never change computation results — only costs).
 */

#include <gtest/gtest.h>

#include <cstring>

#include "sfi/runtime.h"
#include "workloads/crypto.h"
#include "workloads/faas_workloads.h"
#include "workloads/font.h"
#include "workloads/image.h"
#include "workloads/sightglass.h"
#include "workloads/spec_like.h"

namespace
{

using namespace hfi;
using namespace hfi::workloads;

std::unique_ptr<sfi::Sandbox>
makeSandbox(vm::Mmu &mmu, core::HfiContext &ctx, sfi::BackendKind kind,
            unsigned icache = 0)
{
    sfi::RuntimeConfig config;
    config.backend = kind;
    sfi::Runtime runtime(mmu, ctx, config);
    sfi::SandboxOptions opts;
    opts.initialPages = 4;
    opts.icacheSensitivity = icache;
    return runtime.createSandbox(opts);
}

class WorkloadFixture : public ::testing::Test
{
  protected:
    vm::VirtualClock clock;
    vm::Mmu mmu{clock};
    core::HfiContext ctx{clock};
};

// --------------------------------------------------------------- crypto

TEST(Crypto, Sha256EmptyString)
{
    const auto digest = crypto::sha256(nullptr, 0);
    const std::uint8_t expected[] = {0xe3, 0xb0, 0xc4, 0x42, 0x98, 0xfc,
                                     0x1c, 0x14, 0x9a, 0xfb, 0xf4, 0xc8,
                                     0x99, 0x6f, 0xb9, 0x24};
    EXPECT_EQ(std::memcmp(digest.data(), expected, sizeof(expected)), 0);
}

TEST(Crypto, Sha256Abc)
{
    // FIPS 180-2 test vector.
    const char *msg = "abc";
    const auto digest =
        crypto::sha256(reinterpret_cast<const std::uint8_t *>(msg), 3);
    const std::uint8_t expected[] = {0xba, 0x78, 0x16, 0xbf, 0x8f, 0x01,
                                     0xcf, 0xea, 0x41, 0x41, 0x40, 0xde,
                                     0x5d, 0xae, 0x22, 0x23, 0xb0, 0x03,
                                     0x61, 0xa3, 0x96, 0x17, 0x7a, 0x9c};
    EXPECT_EQ(std::memcmp(digest.data(), expected, sizeof(expected)), 0);
}

TEST(Crypto, Sha256LongInput)
{
    // FIPS 180-2: one million 'a' has a known digest; use the two-block
    // "abcdbcde..." vector instead to keep it fast.
    const char *msg =
        "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq";
    const auto digest = crypto::sha256(
        reinterpret_cast<const std::uint8_t *>(msg), std::strlen(msg));
    const std::uint8_t expected[] = {0x24, 0x8d, 0x6a, 0x61, 0xd2, 0x06,
                                     0x38, 0xb8, 0xe5, 0xc0, 0x26, 0x93,
                                     0x0c, 0x3e, 0x60, 0x39};
    EXPECT_EQ(std::memcmp(digest.data(), expected, sizeof(expected)), 0);
}

TEST(Crypto, Chacha20Rfc8439Block)
{
    // RFC 8439 §2.3.2 test vector, block counter 1.
    std::array<std::uint8_t, 32> key;
    for (int i = 0; i < 32; ++i)
        key[i] = static_cast<std::uint8_t>(i);
    std::array<std::uint8_t, 12> nonce = {0, 0, 0, 9, 0, 0,
                                          0, 0x4a, 0, 0, 0, 0};
    const auto block = crypto::chacha20Block(key, nonce, 1);
    const std::uint8_t expected[] = {0x10, 0xf1, 0xe7, 0xe4, 0xd1, 0x3b,
                                     0x59, 0x15, 0x50, 0x0f, 0xdd, 0x1f,
                                     0xa3, 0x20, 0x71, 0xc4};
    EXPECT_EQ(std::memcmp(block.data(), expected, sizeof(expected)), 0);
}

class CryptoSandboxed : public WorkloadFixture
{
};

TEST_F(CryptoSandboxed, Sha256MatchesHostReference)
{
    auto sandbox = makeSandbox(mmu, ctx, sfi::BackendKind::Hfi);
    ASSERT_TRUE(sandbox);
    std::vector<std::uint8_t> data(1000);
    for (std::size_t i = 0; i < data.size(); ++i)
        data[i] = static_cast<std::uint8_t>(i * 31);
    sandbox->memory().writeBytes(64, data.data(), data.size());

    crypto::sha256Sandboxed(*sandbox, 64, data.size(), 8192);
    std::uint8_t in_sandbox[32];
    sandbox->memory().readBytes(8192, in_sandbox, 32);

    const auto host = crypto::sha256(data.data(), data.size());
    EXPECT_EQ(std::memcmp(in_sandbox, host.data(), 32), 0);
}

TEST_F(CryptoSandboxed, Chacha20RoundTrips)
{
    auto sandbox = makeSandbox(mmu, ctx, sfi::BackendKind::GuardPages);
    ASSERT_TRUE(sandbox);
    const char *msg = "attack at dawn";
    sandbox->memory().writeBytes(128, msg, 14);
    crypto::chacha20Sandboxed(*sandbox, 128, 14, 7);
    char cipher[15] = {};
    sandbox->memory().readBytes(128, cipher, 14);
    EXPECT_NE(std::memcmp(cipher, msg, 14), 0);
    crypto::chacha20Sandboxed(*sandbox, 128, 14, 7); // same keystream
    char plain[15] = {};
    sandbox->memory().readBytes(128, plain, 14);
    EXPECT_EQ(std::memcmp(plain, msg, 14), 0);
}

// ------------------------------------------------- backend invariance

struct KernelBackendCase
{
    const char *suiteName;
    std::size_t kernelIndex;
};

class KernelBackendInvariance
    : public ::testing::TestWithParam<KernelBackendCase>
{
  protected:
    static const Workload &
    lookup(const KernelBackendCase &param)
    {
        const auto &s = std::string(param.suiteName) == "sightglass"
                            ? sightglass::suite()
                            : spec::suite();
        return s[param.kernelIndex];
    }
};

TEST_P(KernelBackendInvariance, ChecksumIdenticalAcrossBackends)
{
    const Workload &workload = lookup(GetParam());
    std::uint64_t reference = 0;
    bool first = true;
    for (sfi::BackendKind kind :
         {sfi::BackendKind::GuardPages, sfi::BackendKind::BoundsCheck,
          sfi::BackendKind::Hfi}) {
        vm::VirtualClock clock;
        vm::Mmu mmu(clock);
        core::HfiContext ctx(clock);
        auto sandbox =
            makeSandbox(mmu, ctx, kind, workload.icacheSensitivity);
        ASSERT_TRUE(sandbox);
        std::uint64_t checksum = 0;
        ASSERT_TRUE(sandbox->invoke([&](sfi::Sandbox &s) {
            checksum = workload.run(s, 1, 1234);
        })) << workload.name << " trapped under "
            << backendKindName(kind);
        if (first) {
            reference = checksum;
            first = false;
        } else {
            EXPECT_EQ(checksum, reference)
                << workload.name << " diverged under "
                << backendKindName(kind);
        }
    }
    EXPECT_NE(reference, 0u) << workload.name;
}

std::vector<KernelBackendCase>
allKernels()
{
    std::vector<KernelBackendCase> cases;
    for (std::size_t i = 0; i < sightglass::suite().size(); ++i)
        cases.push_back({"sightglass", i});
    for (std::size_t i = 0; i < spec::suite().size(); ++i)
        cases.push_back({"spec", i});
    return cases;
}

INSTANTIATE_TEST_SUITE_P(
    AllKernels, KernelBackendInvariance, ::testing::ValuesIn(allKernels()),
    [](const ::testing::TestParamInfo<KernelBackendCase> &info) {
        const auto &s = std::string(info.param.suiteName) == "sightglass"
                            ? sightglass::suite()
                            : spec::suite();
        std::string name = std::string(info.param.suiteName) + "_" +
                           s[info.param.kernelIndex].name;
        for (char &c : name) {
            if (!isalnum(static_cast<unsigned char>(c)))
                c = '_';
        }
        return name;
    });

TEST(KernelDeterminism, SeedChangesChecksumScaleKeepsIt)
{
    vm::VirtualClock clock;
    vm::Mmu mmu(clock);
    core::HfiContext ctx(clock);
    const auto &fib = sightglass::suite()[4]; // fib2: seed-independent
    const auto &csv = sightglass::suite()[8]; // minicsv: seed-dependent

    auto run = [&](const Workload &w, std::uint32_t seed) {
        auto sandbox = makeSandbox(mmu, ctx, sfi::BackendKind::Hfi);
        std::uint64_t sum = 0;
        sandbox->invoke([&](sfi::Sandbox &s) { sum = w.run(s, 1, seed); });
        return sum;
    };
    EXPECT_EQ(run(fib, 1), run(fib, 2));
    EXPECT_NE(run(csv, 1), run(csv, 2));
    EXPECT_EQ(run(csv, 7), run(csv, 7));
}

// --------------------------------------------------------------- image

TEST(ImageCodec, QualityNoneIsNearLossless)
{
    // Quality::None is a quantization-step-1 codec pass (the paper's
    // "no compression" level is still JPEG); the integer DCT round
    // trip is near-exact but not bit-exact.
    const auto pixels = image::makeTestImage(64, 48, 5);
    const auto encoded = image::encode(pixels, 64, 48, image::Quality::None);
    const auto decoded = image::decodeReference(encoded);
    ASSERT_EQ(decoded.size(), pixels.size());
    double err = 0;
    for (std::size_t i = 0; i < pixels.size(); ++i)
        err += std::abs(int(decoded[i]) - int(pixels[i]));
    EXPECT_LT(err / static_cast<double>(pixels.size()), 2.5);
}

TEST(ImageCodec, QuantizedDecodeIsClose)
{
    const auto pixels = image::makeTestImage(64, 64, 9);
    for (auto q : {image::Quality::Default, image::Quality::Best}) {
        const auto encoded = image::encode(pixels, 64, 64, q);
        const auto decoded = image::decodeReference(encoded);
        ASSERT_EQ(decoded.size(), pixels.size());
        double err = 0;
        for (std::size_t i = 0; i < pixels.size(); ++i)
            err += std::abs(int(decoded[i]) - int(pixels[i]));
        err /= static_cast<double>(pixels.size());
        EXPECT_LT(err, 16.0) << image::qualityName(q);
        EXPECT_GT(err, 0.0);
    }
}

TEST(ImageCodec, BetterCompressionMeansSmallerBitstream)
{
    const auto pixels = image::makeTestImage(128, 128, 3);
    const auto none = image::encode(pixels, 128, 128, image::Quality::None);
    const auto def =
        image::encode(pixels, 128, 128, image::Quality::Default);
    const auto best = image::encode(pixels, 128, 128, image::Quality::Best);
    EXPECT_LT(best.bits.size(), def.bits.size());
    EXPECT_LT(def.bits.size(), none.bits.size());
}

TEST(ImageCodec, SandboxedDecodeMatchesReferencePixels)
{
    vm::VirtualClock clock;
    vm::Mmu mmu(clock);
    core::HfiContext ctx(clock);
    const auto pixels = image::makeTestImage(48, 32, 11);
    const auto encoded =
        image::encode(pixels, 48, 32, image::Quality::Default);

    auto sandbox = makeSandbox(mmu, ctx, sfi::BackendKind::Hfi);
    std::uint64_t sandbox_sum = 0;
    ASSERT_TRUE(sandbox->invoke([&](sfi::Sandbox &s) {
        sandbox_sum = image::decodeSandboxed(s, encoded);
    }));

    // Recompute the same checksum from the reference decode.
    const auto ref = image::decodeReference(encoded);
    std::uint64_t hash = 0xcbf29ce484222325ULL;
    for (std::uint8_t px : ref) {
        hash ^= px;
        hash *= 0x100000001b3ULL;
    }
    EXPECT_EQ(sandbox_sum, hash);
}

TEST(ImageCodec, DecodeChecksumBackendInvariant)
{
    const auto pixels = image::makeTestImage(64, 40, 21);
    const auto encoded =
        image::encode(pixels, 64, 40, image::Quality::Best);
    std::uint64_t sums[2];
    int at = 0;
    for (auto kind :
         {sfi::BackendKind::GuardPages, sfi::BackendKind::Hfi}) {
        vm::VirtualClock clock;
        vm::Mmu mmu(clock);
        core::HfiContext ctx(clock);
        auto sandbox = makeSandbox(mmu, ctx, kind);
        sandbox->invoke([&](sfi::Sandbox &s) {
            sums[at] = image::decodeSandboxed(s, encoded);
        });
        ++at;
    }
    EXPECT_EQ(sums[0], sums[1]);
}

// ---------------------------------------------------------------- font

TEST(Font, ReflowIsDeterministicAndShapesEverything)
{
    vm::VirtualClock clock;
    vm::Mmu mmu(clock);
    core::HfiContext ctx(clock);
    const std::string text = font::makeTestText(300, 17);

    auto run = [&] {
        auto sandbox = makeSandbox(mmu, ctx, sfi::BackendKind::Hfi);
        font::ReflowResult res;
        sandbox->invoke([&](sfi::Sandbox &s) {
            res = font::reflowSandboxed(s, text, 16, 800);
        });
        return res;
    };
    const auto a = run();
    const auto b = run();
    EXPECT_EQ(a.checksum, b.checksum);
    EXPECT_GT(a.lines, 3u);
    // Every non-space character becomes a positioned glyph.
    std::size_t non_space = 0;
    for (char c : text)
        non_space += c != ' ';
    EXPECT_EQ(a.glyphs, non_space);
}

TEST(Font, LargerFontMeansMoreLines)
{
    vm::VirtualClock clock;
    vm::Mmu mmu(clock);
    core::HfiContext ctx(clock);
    const std::string text = font::makeTestText(400, 3);
    auto lines = [&](std::uint32_t size) {
        auto sandbox = makeSandbox(mmu, ctx, sfi::BackendKind::GuardPages);
        font::ReflowResult res;
        sandbox->invoke([&](sfi::Sandbox &s) {
            res = font::reflowSandboxed(s, text, size, 640);
        });
        return res.lines;
    };
    EXPECT_GT(lines(24), lines(12));
}

// ------------------------------------------------------ FaaS handlers

class FaasWorkloads : public WorkloadFixture
{
};

TEST_F(FaasWorkloads, XmlToJsonProducesJson)
{
    auto sandbox = makeSandbox(mmu, ctx, sfi::BackendKind::Hfi);
    const std::string xml = faas::makeXmlDocument(10, 3);
    sandbox->memory().writeBytes(64, xml.data(), xml.size());
    std::uint64_t sum = 0;
    ASSERT_TRUE(sandbox->invoke([&](sfi::Sandbox &s) {
        sum = faas::xmlToJson(s, 64, xml.size());
    }));
    EXPECT_NE(sum, 0u);
    // Deterministic given the same document.
    auto sandbox2 = makeSandbox(mmu, ctx, sfi::BackendKind::GuardPages);
    sandbox2->memory().writeBytes(64, xml.data(), xml.size());
    std::uint64_t sum2 = 0;
    sandbox2->invoke(
        [&](sfi::Sandbox &s) { sum2 = faas::xmlToJson(s, 64, xml.size()); });
    EXPECT_EQ(sum, sum2);
}

TEST_F(FaasWorkloads, XmlToJsonReadsNothingPastItsInput)
{
    // An input ending in '<' has no lookahead byte; the byte after the
    // input must not decide whether the tag is a closing one.
    const std::string xml = "<orders><id>7</id><";
    std::uint64_t sums[2] = {};
    const char planted[2] = {'/', 'a'};
    for (int k = 0; k < 2; ++k) {
        auto sandbox = makeSandbox(mmu, ctx, sfi::BackendKind::Hfi);
        sandbox->memory().writeBytes(64, xml.data(), xml.size());
        sandbox->memory().writeBytes(64 + xml.size(), &planted[k], 1);
        ASSERT_TRUE(sandbox->invoke([&](sfi::Sandbox &s) {
            sums[k] = faas::xmlToJson(s, 64, xml.size());
        }));
    }
    EXPECT_EQ(sums[0], sums[1]);
}

TEST_F(FaasWorkloads, CheckSha256DetectsMatchAndMismatch)
{
    auto sandbox = makeSandbox(mmu, ctx, sfi::BackendKind::Hfi);
    std::vector<std::uint8_t> payload(256, 0x5a);
    sandbox->memory().writeBytes(64, payload.data(), payload.size());
    const auto good = crypto::sha256(payload.data(), payload.size());
    sandbox->memory().writeBytes(4096, good.data(), 32);

    std::uint64_t match_sum = 0, mismatch_sum = 0;
    sandbox->invoke([&](sfi::Sandbox &s) {
        match_sum = faas::checkSha256(s, 64, payload.size(), 4096);
    });
    // Corrupt the expected digest.
    std::uint8_t bad = good[0] ^ 1;
    sandbox->memory().writeBytes(4096, &bad, 1);
    sandbox->invoke([&](sfi::Sandbox &s) {
        mismatch_sum = faas::checkSha256(s, 64, payload.size(), 4096);
    });
    EXPECT_NE(match_sum, mismatch_sum);
}

TEST_F(FaasWorkloads, ClassifyImageIsDeterministic)
{
    auto sandbox = makeSandbox(mmu, ctx, sfi::BackendKind::Hfi);
    const auto img = image::makeTestImage(28, 28, 7);
    sandbox->memory().writeBytes(64, img.data(), img.size());
    std::uint64_t a = 0, b = 0;
    sandbox->invoke([&](sfi::Sandbox &s) {
        a = faas::classifyImage(s, 64, 28, 99);
    });
    auto sandbox2 = makeSandbox(mmu, ctx, sfi::BackendKind::BoundsCheck);
    sandbox2->memory().writeBytes(64, img.data(), img.size());
    sandbox2->invoke([&](sfi::Sandbox &s) {
        b = faas::classifyImage(s, 64, 28, 99);
    });
    EXPECT_EQ(a, b);
}

TEST_F(FaasWorkloads, TemplateRenderingExpandsLoops)
{
    auto sandbox = makeSandbox(mmu, ctx, sfi::BackendKind::Hfi);
    const std::string tpl = faas::makeHtmlTemplate(0);
    sandbox->memory().writeBytes(64, tpl.data(), tpl.size());
    std::uint64_t small = 0, large = 0;
    sandbox->invoke([&](sfi::Sandbox &s) {
        small = faas::renderTemplate(s, 64, tpl.size(), 2, 5);
    });
    auto sandbox2 = makeSandbox(mmu, ctx, sfi::BackendKind::Hfi);
    sandbox2->memory().writeBytes(64, tpl.data(), tpl.size());
    sandbox2->invoke([&](sfi::Sandbox &s) {
        large = faas::renderTemplate(s, 64, tpl.size(), 20, 5);
    });
    EXPECT_NE(small, large); // more rows, different (longer) output
}

} // namespace
