/**
 * @file
 * Built-in behaviour families.
 *
 * Tuning notes: the discriminative weight between families lives in
 * mid-frequency opcodes (several percent of dynamic instructions),
 * because that is where a 10K-instruction collection window has a
 * stable estimate — mirroring real corpora, where behaviour
 * signatures (unpacking loops, string handling, media kernels,
 * polling loops) occupy a substantial fraction of hot code. Several
 * family pairs intentionally overlap (Archiver vs PackedDropper,
 * SpecCompute vs RansomCrypto, Browser vs SpamBot/ClickFraud) so
 * classification lands in the paper's ~0.85-0.95 AUC regime rather
 * than being trivially separable.
 */

#include "trace/profiles.hh"

#include "support/logging.hh"

namespace rhmd::trace
{

std::vector<double>
baselineBodyMix()
{
    std::vector<double> mix(kNumOpClasses, 0.0);
    auto set = [&](OpClass op, double w) {
        mix[static_cast<std::size_t>(op)] = w;
    };
    set(OpClass::IntAdd, 8.0);
    set(OpClass::IntSub, 3.0);
    set(OpClass::IntMul, 0.8);
    set(OpClass::IntDiv, 0.15);
    set(OpClass::IntCmp, 7.0);
    set(OpClass::IntTest, 3.0);
    set(OpClass::LogicAnd, 2.0);
    set(OpClass::LogicOr, 1.5);
    set(OpClass::LogicXor, 2.5);
    set(OpClass::ShiftLeft, 1.5);
    set(OpClass::ShiftRight, 1.5);
    set(OpClass::Rotate, 0.3);
    set(OpClass::MovRegReg, 12.0);
    set(OpClass::MovImm, 5.0);
    set(OpClass::Lea, 4.0);
    set(OpClass::Load, 18.0);
    set(OpClass::Store, 9.0);
    set(OpClass::Push, 3.5);
    set(OpClass::Pop, 3.5);
    set(OpClass::Nop, 1.2);
    set(OpClass::FpAdd, 1.0);
    set(OpClass::FpMul, 0.8);
    set(OpClass::FpDiv, 0.15);
    set(OpClass::SseVec, 1.5);
    set(OpClass::StringOp, 0.8);
    set(OpClass::AesRound, 0.05);
    set(OpClass::Xchg, 0.25);
    set(OpClass::SystemOp, 0.4);
    return mix;
}

std::vector<double>
mixSet(const std::vector<MixOverride> &overrides)
{
    std::vector<double> mix = baselineBodyMix();
    for (const MixOverride &entry : overrides) {
        const auto index = static_cast<std::size_t>(entry.op);
        panic_if(index >= kNumOpClasses, "bad override opcode");
        panic_if(isControlFlow(entry.op),
                 "body mix cannot weight control-flow opcodes");
        mix[index] = entry.weight;
    }
    return mix;
}

namespace
{

std::vector<FamilyProfile>
makeBenign()
{
    std::vector<FamilyProfile> out;

    {
        FamilyProfile p;
        p.name = "browser";
        // DOM/string handling, JIT-ed mixed code, some media.
        p.bodyMix = mixSet({{OpClass::StringOp, 4.0},
                            {OpClass::SseVec, 4.0},
                            {OpClass::FpAdd, 3.0},
                            {OpClass::Load, 22.0},
                            {OpClass::Store, 11.5},
                            {OpClass::IntCmp, 9.0},
                            {OpClass::SystemOp, 0.8}});
        p.mixSpread = 0.22;
        p.meanBlockLen = 6.5;
        p.condFrac = 0.58;
        p.callFrac = 0.22;
        p.strideFrac = 0.40;
        p.unalignedProb = 0.05;
        p.minFunctions = 10;
        p.maxFunctions = 18;
        p.minRegions = 4;
        p.maxRegions = 7;
        p.minRegionBytes = 1ULL << 16;
        p.maxRegionBytes = 1ULL << 23;
        p.spanLog2Min = 13;
        p.spanLog2Max = 18;
        out.push_back(std::move(p));
    }
    {
        FamilyProfile p;
        p.name = "text_editor";
        // Buffer scans and copies: string ops, compares, short strides.
        p.bodyMix = mixSet({{OpClass::StringOp, 7.0},
                            {OpClass::IntCmp, 11.0},
                            {OpClass::LogicAnd, 4.0},
                            {OpClass::Load, 20.0},
                            {OpClass::MovRegReg, 15.0}});
        p.mixSpread = 0.22;
        p.meanBlockLen = 7.0;
        p.condFrac = 0.60;
        p.strideFrac = 0.70;
        p.strideChoices = {1, 2, 8, 16};
        p.minRegions = 2;
        p.maxRegions = 4;
        p.minRegionBytes = 1ULL << 13;
        p.maxRegionBytes = 1ULL << 19;
        p.spanLog2Min = 11;
        p.spanLog2Max = 15;
        out.push_back(std::move(p));
    }
    {
        FamilyProfile p;
        p.name = "spec_compute";
        // Numeric kernels: fp/vector heavy, long blocks, strided.
        p.bodyMix = mixSet({{OpClass::FpAdd, 9.0},
                            {OpClass::FpMul, 8.0},
                            {OpClass::FpDiv, 1.5},
                            {OpClass::SseVec, 7.0},
                            {OpClass::IntMul, 2.5},
                            {OpClass::Lea, 6.0},
                            {OpClass::Load, 22.0},
                            {OpClass::SystemOp, 0.1},
                            {OpClass::StringOp, 0.25}});
        p.mixSpread = 0.25;
        p.meanBlockLen = 13.0;
        p.condFrac = 0.50;
        p.callFrac = 0.12;
        p.backEdgeFrac = 0.65;
        p.loopTakenProb = 0.80;
        p.strideFrac = 0.85;
        p.strideChoices = {8, 8, 16, 64};
        p.unalignedProb = 0.01;
        p.minFunctions = 4;
        p.maxFunctions = 9;
        p.minRegionBytes = 1ULL << 18;
        p.maxRegionBytes = 1ULL << 24;
        p.spanLog2Min = 14;
        p.spanLog2Max = 18;
        out.push_back(std::move(p));
    }
    {
        FamilyProfile p;
        p.name = "system_tool";
        // API-call heavy utilities: stack traffic, immediates, tests.
        p.bodyMix = mixSet({{OpClass::SystemOp, 2.5},
                            {OpClass::Push, 7.0},
                            {OpClass::Pop, 7.0},
                            {OpClass::MovImm, 8.0},
                            {OpClass::IntTest, 5.5}});
        p.mixSpread = 0.22;
        p.meanBlockLen = 5.5;
        p.condFrac = 0.56;
        p.callFrac = 0.26;
        p.minFunctions = 8;
        p.maxFunctions = 16;
        p.minRegions = 2;
        p.maxRegions = 4;
        p.minRegionBytes = 1ULL << 12;
        p.maxRegionBytes = 1ULL << 17;
        p.spanLog2Min = 11;
        p.spanLog2Max = 14;
        out.push_back(std::move(p));
    }
    {
        FamilyProfile p;
        p.name = "archiver";
        // Compression: bit twiddling over byte streams.
        p.bodyMix = mixSet({{OpClass::LogicXor, 7.0},
                            {OpClass::LogicAnd, 5.0},
                            {OpClass::LogicOr, 3.5},
                            {OpClass::ShiftLeft, 5.0},
                            {OpClass::ShiftRight, 5.0},
                            {OpClass::Rotate, 2.5},
                            {OpClass::Load, 21.0},
                            {OpClass::Store, 12.0},
                            {OpClass::StringOp, 3.0},
                            {OpClass::SystemOp, 0.2}});
        p.mixSpread = 0.25;
        p.meanBlockLen = 10.0;
        p.condFrac = 0.52;
        p.backEdgeFrac = 0.60;
        p.loopTakenProb = 0.80;
        p.strideFrac = 0.80;
        p.strideChoices = {1, 1, 2, 4};
        p.minRegionBytes = 1ULL << 16;
        p.maxRegionBytes = 1ULL << 23;
        p.spanLog2Min = 13;
        p.spanLog2Max = 17;
        out.push_back(std::move(p));
    }
    {
        FamilyProfile p;
        p.name = "media_player";
        // Codec kernels: packed vector math on long strides.
        p.bodyMix = mixSet({{OpClass::SseVec, 14.0},
                            {OpClass::FpAdd, 5.5},
                            {OpClass::FpMul, 5.0},
                            {OpClass::IntAdd, 9.5},
                            {OpClass::Load, 23.0},
                            {OpClass::Store, 11.0},
                            {OpClass::SystemOp, 0.25}});
        p.mixSpread = 0.22;
        p.meanBlockLen = 11.5;
        p.condFrac = 0.48;
        p.backEdgeFrac = 0.62;
        p.loopTakenProb = 0.82;
        p.strideFrac = 0.88;
        p.strideChoices = {16, 16, 64, 256};
        p.unalignedProb = 0.02;
        p.minRegionBytes = 1ULL << 18;
        p.maxRegionBytes = 1ULL << 24;
        p.spanLog2Min = 14;
        p.spanLog2Max = 18;
        out.push_back(std::move(p));
    }

    return out;
}

std::vector<FamilyProfile>
makeMalware()
{
    std::vector<FamilyProfile> out;

    {
        FamilyProfile p;
        p.name = "spam_bot";
        p.malware = true;
        // Template stuffing + network send loops; like a browser's
        // string side without its media/fp side.
        p.bodyMix = mixSet({{OpClass::StringOp, 5.0},
                            {OpClass::MovImm, 11.0},
                            {OpClass::SystemOp, 2.8},
                            {OpClass::IntCmp, 9.5},
                            {OpClass::Store, 11.0},
                            {OpClass::SseVec, 0.3},
                            {OpClass::FpAdd, 0.2},
                            {OpClass::FpMul, 0.15}});
        p.mixSpread = 0.22;
        p.meanBlockLen = 5.5;
        p.condFrac = 0.60;
        p.callFrac = 0.24;
        p.strideFrac = 0.45;
        p.minRegions = 2;
        p.maxRegions = 4;
        p.minRegionBytes = 1ULL << 13;
        p.maxRegionBytes = 1ULL << 18;
        p.spanLog2Min = 10;
        p.spanLog2Max = 13;
        p.minFunctions = 4;
        p.maxFunctions = 9;
        out.push_back(std::move(p));
    }
    {
        FamilyProfile p;
        p.name = "click_fraud_bot";
        p.malware = true;
        // Replay loops: immediates, idle padding, API churn.
        p.bodyMix = mixSet({{OpClass::MovImm, 9.0},
                            {OpClass::Nop, 5.0},
                            {OpClass::SystemOp, 2.2},
                            {OpClass::IntCmp, 9.5},
                            {OpClass::StringOp, 2.0},
                            {OpClass::SseVec, 0.4},
                            {OpClass::FpAdd, 0.3}});
        p.mixSpread = 0.22;
        p.meanBlockLen = 6.0;
        p.condFrac = 0.62;
        p.backEdgeFrac = 0.55;
        p.loopTakenProb = 0.80;
        p.strideFrac = 0.40;
        p.unalignedProb = 0.05;
        p.minRegions = 3;
        p.maxRegions = 5;
        p.minRegionBytes = 1ULL << 14;
        p.maxRegionBytes = 1ULL << 20;
        p.spanLog2Min = 11;
        p.spanLog2Max = 14;
        p.minFunctions = 5;
        p.maxFunctions = 10;
        out.push_back(std::move(p));
    }
    {
        FamilyProfile p;
        p.name = "network_scanner";
        p.malware = true;
        // Probe loops: syscalls, compares, very short blocks.
        p.bodyMix = mixSet({{OpClass::SystemOp, 4.5},
                            {OpClass::MovImm, 10.0},
                            {OpClass::IntCmp, 11.0},
                            {OpClass::IntTest, 6.0},
                            {OpClass::Nop, 3.0},
                            {OpClass::SseVec, 0.2},
                            {OpClass::FpAdd, 0.15},
                            {OpClass::StringOp, 0.5}});
        p.mixSpread = 0.22;
        p.meanBlockLen = 4.5;
        p.condFrac = 0.64;
        p.backEdgeFrac = 0.58;
        p.loopTakenProb = 0.82;
        p.strideFrac = 0.55;
        p.strideChoices = {4, 8};
        p.minRegions = 1;
        p.maxRegions = 3;
        p.minRegionBytes = 1ULL << 12;
        p.maxRegionBytes = 1ULL << 15;
        p.spanLog2Min = 10;
        p.spanLog2Max = 12;
        p.minFunctions = 3;
        p.maxFunctions = 7;
        out.push_back(std::move(p));
    }
    {
        FamilyProfile p;
        p.name = "keylogger";
        p.malware = true;
        // Poll-and-test idle loops with tiny footprint.
        p.bodyMix = mixSet({{OpClass::SystemOp, 3.8},
                            {OpClass::IntTest, 7.0},
                            {OpClass::Nop, 7.0},
                            {OpClass::MovImm, 8.0},
                            {OpClass::Load, 15.0},
                            {OpClass::SseVec, 0.2},
                            {OpClass::FpAdd, 0.15},
                            {OpClass::FpMul, 0.1}});
        p.mixSpread = 0.22;
        p.meanBlockLen = 4.0;
        p.condFrac = 0.66;
        p.backEdgeFrac = 0.62;
        p.loopTakenProb = 0.84;
        p.callFrac = 0.16;
        p.strideFrac = 0.50;
        p.minRegions = 1;
        p.maxRegions = 2;
        p.minRegionBytes = 1ULL << 12;
        p.maxRegionBytes = 1ULL << 14;
        p.spanLog2Min = 10;
        p.spanLog2Max = 12;
        p.minFunctions = 3;
        p.maxFunctions = 6;
        out.push_back(std::move(p));
    }
    {
        FamilyProfile p;
        p.name = "packed_dropper";
        p.malware = true;
        // Unpacking stub: xor/rotate decode loops writing randomly,
        // misaligned accesses; the malicious cousin of the archiver.
        p.bodyMix = mixSet({{OpClass::LogicXor, 9.0},
                            {OpClass::Rotate, 3.5},
                            {OpClass::ShiftLeft, 5.5},
                            {OpClass::ShiftRight, 5.5},
                            {OpClass::Xchg, 1.8},
                            {OpClass::Store, 13.5},
                            {OpClass::MovImm, 7.0},
                            {OpClass::SystemOp, 1.2},
                            {OpClass::StringOp, 0.4}});
        p.mixSpread = 0.25;
        p.meanBlockLen = 8.5;
        p.condFrac = 0.54;
        p.backEdgeFrac = 0.58;
        p.loopTakenProb = 0.80;
        p.strideFrac = 0.55;
        p.strideChoices = {1, 2, 4};
        p.unalignedProb = 0.12;
        p.minRegionBytes = 1ULL << 15;
        p.maxRegionBytes = 1ULL << 21;
        p.spanLog2Min = 11;
        p.spanLog2Max = 15;
        p.minFunctions = 4;
        p.maxFunctions = 9;
        out.push_back(std::move(p));
    }
    {
        FamilyProfile p;
        p.name = "ransom_crypto";
        p.malware = true;
        // Bulk encryption sweeps; the malicious cousin of
        // spec_compute/media with crypto in place of fp.
        p.bodyMix = mixSet({{OpClass::AesRound, 4.5},
                            {OpClass::LogicXor, 7.0},
                            {OpClass::SseVec, 4.0},
                            {OpClass::Load, 23.0},
                            {OpClass::Store, 13.0},
                            {OpClass::SystemOp, 0.8},
                            {OpClass::FpAdd, 0.2},
                            {OpClass::FpMul, 0.15}});
        p.mixSpread = 0.22;
        p.meanBlockLen = 11.0;
        p.condFrac = 0.50;
        p.backEdgeFrac = 0.64;
        p.loopTakenProb = 0.82;
        p.strideFrac = 0.82;
        p.strideChoices = {16, 16, 64};
        p.minRegionBytes = 1ULL << 17;
        p.maxRegionBytes = 1ULL << 23;
        p.spanLog2Min = 13;
        p.spanLog2Max = 16;
        p.minFunctions = 4;
        p.maxFunctions = 8;
        out.push_back(std::move(p));
    }

    return out;
}

} // namespace

const std::vector<FamilyProfile> &
benignProfiles()
{
    static const std::vector<FamilyProfile> profiles = makeBenign();
    return profiles;
}

const std::vector<FamilyProfile> &
malwareProfiles()
{
    static const std::vector<FamilyProfile> profiles = makeMalware();
    return profiles;
}

const std::vector<FamilyProfile> &
allProfiles()
{
    static const std::vector<FamilyProfile> profiles = [] {
        std::vector<FamilyProfile> all = benignProfiles();
        const auto &mal = malwareProfiles();
        all.insert(all.end(), mal.begin(), mal.end());
        return all;
    }();
    return profiles;
}

} // namespace rhmd::trace
