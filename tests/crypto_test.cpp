#include <gtest/gtest.h>

#include "crypto/chaum_pedersen.h"
#include "crypto/cost_model.h"
#include "crypto/drbg.h"
#include "crypto/elgamal.h"
#include "crypto/group.h"
#include "crypto/hmac.h"
#include "crypto/merkle.h"
#include "crypto/modmath.h"
#include "crypto/schnorr.h"
#include "crypto/shamir.h"
#include "crypto/sha256.h"

namespace vcl::crypto {
namespace {

// ---- SHA-256 (FIPS 180-4 known-answer tests) -------------------------------

TEST(Sha256, EmptyString) {
  EXPECT_EQ(to_hex(Sha256::hash("")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256, Abc) {
  EXPECT_EQ(to_hex(Sha256::hash("abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256, TwoBlockMessage) {
  EXPECT_EQ(to_hex(Sha256::hash(
                "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256, MillionAs) {
  Sha256 h;
  const std::string chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) h.update(chunk);
  EXPECT_EQ(to_hex(h.finalize()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256, ExactBlockBoundary) {
  // 64-byte message exercises the padding-into-new-block path.
  const std::string m(64, 'x');
  const Digest d1 = Sha256::hash(m);
  Sha256 h;
  h.update(m.substr(0, 13));
  h.update(m.substr(13));
  EXPECT_EQ(to_hex(h.finalize()), to_hex(d1));
}

TEST(Sha256, DigestPrefix) {
  const Digest d = Sha256::hash("abc");
  EXPECT_EQ(digest_prefix_u64(d), 0xba7816bf8f01cfeaULL);
}

// ---- HMAC (RFC 4231 vectors) ------------------------------------------------

TEST(Hmac, Rfc4231Case1) {
  const Bytes key(20, 0x0b);
  EXPECT_EQ(to_hex(hmac_sha256(key, "Hi There")),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
}

TEST(Hmac, Rfc4231Case2) {
  const std::string key_s = "Jefe";
  const Bytes key(key_s.begin(), key_s.end());
  EXPECT_EQ(to_hex(hmac_sha256(key, "what do ya want for nothing?")),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
}

TEST(Hmac, LongKeyIsHashed) {
  const Bytes key(131, 0xaa);
  EXPECT_EQ(
      to_hex(hmac_sha256(key, "Test Using Larger Than Block-Size Key - "
                              "Hash Key First")),
      "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
}

TEST(Hmac, DigestEqual) {
  const Digest a = Sha256::hash("x");
  Digest b = a;
  EXPECT_TRUE(digest_equal(a, b));
  b[31] ^= 1;
  EXPECT_FALSE(digest_equal(a, b));
}

// ---- DRBG -------------------------------------------------------------------

TEST(Drbg, Deterministic) {
  Drbg a(std::uint64_t{99}), b(std::uint64_t{99});
  EXPECT_EQ(a.generate(100), b.generate(100));
}

TEST(Drbg, DifferentSeedsDiffer) {
  Drbg a(std::uint64_t{1}), b(std::uint64_t{2});
  EXPECT_NE(a.generate(32), b.generate(32));
}

TEST(Drbg, ScalarInRange) {
  Drbg d(std::uint64_t{5});
  for (int i = 0; i < 1000; ++i) {
    const std::uint64_t s = d.next_scalar(997);
    EXPECT_GE(s, 1u);
    EXPECT_LT(s, 997u);
  }
}

TEST(Drbg, SpansBlockBoundaries) {
  Drbg a(std::uint64_t{7});
  Drbg b(std::uint64_t{7});
  Bytes big = a.generate(100);
  Bytes parts;
  for (int i = 0; i < 10; ++i) {
    const Bytes p = b.generate(10);
    parts.insert(parts.end(), p.begin(), p.end());
  }
  EXPECT_EQ(big, parts);
}

// ---- Modular math -----------------------------------------------------------

TEST(ModMath, Basics) {
  EXPECT_EQ(mod_add(10, 8, 13), 5u);
  EXPECT_EQ(mod_sub(3, 8, 13), 8u);
  EXPECT_EQ(mod_mul(7, 8, 13), 4u);
  EXPECT_EQ(mod_pow(2, 10, 1000), 24u);
}

TEST(ModMath, LargeOperandsNoOverflow) {
  const std::uint64_t p = 0xffffffffffffffc5ULL;  // largest 64-bit prime
  const std::uint64_t a = p - 1;
  EXPECT_EQ(mod_mul(a, a, p), 1u);  // (-1)^2 = 1
  EXPECT_EQ(mod_pow(a, 2, p), 1u);
}

TEST(ModMath, Inverse) {
  const std::uint64_t p = 1000000007ULL;
  for (std::uint64_t a : {2ULL, 3ULL, 999999999ULL, 123456789ULL}) {
    const std::uint64_t inv = mod_inv(a, p);
    EXPECT_EQ(mod_mul(a, inv, p), 1u);
  }
}

TEST(ModMath, InverseOfNonCoprimeIsZero) {
  EXPECT_EQ(mod_inv(6, 9), 0u);
}

TEST(ModMath, IsPrimeSmall) {
  EXPECT_TRUE(is_prime(2));
  EXPECT_TRUE(is_prime(3));
  EXPECT_FALSE(is_prime(1));
  EXPECT_FALSE(is_prime(0));
  EXPECT_TRUE(is_prime(97));
  EXPECT_FALSE(is_prime(91));  // 7 * 13
}

TEST(ModMath, CarmichaelNumbersRejected) {
  EXPECT_FALSE(is_prime(561));
  EXPECT_FALSE(is_prime(41041));
  EXPECT_FALSE(is_prime(825265));
}

TEST(ModMath, LargePrimes) {
  EXPECT_TRUE(is_prime(0xffffffffffffffc5ULL));
  EXPECT_TRUE(is_prime(1000000007ULL));
  EXPECT_FALSE(is_prime(1000000007ULL * 3));
}

// ---- Schnorr group ----------------------------------------------------------

TEST(Group, ParametersAreSafePrime) {
  const SchnorrGroup& g = default_group();
  EXPECT_TRUE(is_prime(g.p()));
  EXPECT_TRUE(is_prime(g.q()));
  EXPECT_EQ(g.p(), 2 * g.q() + 1);
  EXPECT_GT(g.p(), 1ULL << 60);
}

TEST(Group, GeneratorHasOrderQ) {
  const SchnorrGroup& g = default_group();
  EXPECT_EQ(g.pow_g(g.q()), 1u);
  EXPECT_NE(g.pow_g(1), 1u);
  EXPECT_TRUE(g.is_element(g.g()));
}

TEST(Group, DerivationIsDeterministic) {
  const SchnorrGroup a = SchnorrGroup::derive(7);
  const SchnorrGroup b = SchnorrGroup::derive(7);
  EXPECT_EQ(a.p(), b.p());
  EXPECT_EQ(a.g(), b.g());
  const SchnorrGroup c = SchnorrGroup::derive(8);
  EXPECT_NE(a.p(), c.p());
}

TEST(Group, ExponentLawsHold) {
  const SchnorrGroup& g = default_group();
  Drbg d(std::uint64_t{1});
  for (int i = 0; i < 20; ++i) {
    const std::uint64_t a = d.next_scalar(g.q());
    const std::uint64_t b = d.next_scalar(g.q());
    // g^a * g^b == g^(a+b)
    EXPECT_EQ(g.mul(g.pow_g(a), g.pow_g(b)), g.pow_g(g.scalar_add(a, b)));
    // (g^a)^b == g^(ab)
    EXPECT_EQ(g.pow(g.pow_g(a), b), g.pow_g(g.scalar_mul(a, b)));
  }
}

TEST(Group, HashToScalarNonZero) {
  const SchnorrGroup& g = default_group();
  for (int i = 0; i < 50; ++i) {
    Bytes data{static_cast<std::uint8_t>(i)};
    const std::uint64_t s = g.hash_to_scalar(data);
    EXPECT_GE(s, 1u);
    EXPECT_LT(s, g.q());
  }
}

// ---- Schnorr signatures -----------------------------------------------------

class SchnorrFixture : public ::testing::Test {
 protected:
  SchnorrFixture() : schnorr_(default_group()), drbg_(std::uint64_t{2024}) {}
  Schnorr schnorr_;
  Drbg drbg_;
};

TEST_F(SchnorrFixture, SignVerifyRoundTrip) {
  const SchnorrKeyPair kp = schnorr_.keygen(drbg_);
  const Bytes msg{1, 2, 3, 4};
  const SchnorrSignature sig = schnorr_.sign(kp.secret, msg, drbg_);
  EXPECT_TRUE(schnorr_.verify(kp.pub, msg, sig));
}

TEST_F(SchnorrFixture, TamperedMessageRejected) {
  const SchnorrKeyPair kp = schnorr_.keygen(drbg_);
  Bytes msg{1, 2, 3, 4};
  const SchnorrSignature sig = schnorr_.sign(kp.secret, msg, drbg_);
  msg[0] ^= 1;
  EXPECT_FALSE(schnorr_.verify(kp.pub, msg, sig));
}

TEST_F(SchnorrFixture, WrongKeyRejected) {
  const SchnorrKeyPair kp1 = schnorr_.keygen(drbg_);
  const SchnorrKeyPair kp2 = schnorr_.keygen(drbg_);
  const Bytes msg{9, 9};
  const SchnorrSignature sig = schnorr_.sign(kp1.secret, msg, drbg_);
  EXPECT_FALSE(schnorr_.verify(kp2.pub, msg, sig));
}

TEST_F(SchnorrFixture, TamperedSignatureRejected) {
  const SchnorrKeyPair kp = schnorr_.keygen(drbg_);
  const Bytes msg{5};
  SchnorrSignature sig = schnorr_.sign(kp.secret, msg, drbg_);
  sig.s = schnorr_.group().scalar_add(sig.s, 1);
  EXPECT_FALSE(schnorr_.verify(kp.pub, msg, sig));
}

TEST_F(SchnorrFixture, NonElementPublicKeyRejected) {
  const Bytes msg{5};
  const SchnorrKeyPair kp = schnorr_.keygen(drbg_);
  const SchnorrSignature sig = schnorr_.sign(kp.secret, msg, drbg_);
  EXPECT_FALSE(schnorr_.verify(0, msg, sig));
}

// Property: round trip holds over many random keys and messages.
class SchnorrProperty : public ::testing::TestWithParam<int> {};

TEST_P(SchnorrProperty, RandomRoundTrips) {
  const Schnorr schnorr(default_group());
  Drbg drbg(static_cast<std::uint64_t>(GetParam()));
  for (int i = 0; i < 20; ++i) {
    const SchnorrKeyPair kp = schnorr.keygen(drbg);
    const Bytes msg = drbg.generate(static_cast<std::size_t>(1 + i * 7));
    const SchnorrSignature sig = schnorr.sign(kp.secret, msg, drbg);
    EXPECT_TRUE(schnorr.verify(kp.pub, msg, sig));
    Bytes bad = msg;
    bad.back() ^= 0xff;
    EXPECT_FALSE(schnorr.verify(kp.pub, bad, sig));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SchnorrProperty, ::testing::Range(1, 6));

// ---- ElGamal ----------------------------------------------------------------

TEST(ElGamal, ElementRoundTrip) {
  const SchnorrGroup& g = default_group();
  const ElGamal eg(g);
  Drbg drbg(std::uint64_t{3});
  const std::uint64_t secret = drbg.next_scalar(g.q());
  const std::uint64_t pub = g.pow_g(secret);
  const std::uint64_t m = g.pow_g(drbg.next_scalar(g.q()));
  const ElGamalCiphertext ct = eg.encrypt(pub, m, drbg);
  EXPECT_EQ(eg.decrypt(secret, ct), m);
}

TEST(ElGamal, WrongSecretGivesWrongPlaintext) {
  const SchnorrGroup& g = default_group();
  const ElGamal eg(g);
  Drbg drbg(std::uint64_t{4});
  const std::uint64_t secret = drbg.next_scalar(g.q());
  const std::uint64_t pub = g.pow_g(secret);
  const std::uint64_t m = g.pow_g(drbg.next_scalar(g.q()));
  const ElGamalCiphertext ct = eg.encrypt(pub, m, drbg);
  EXPECT_NE(eg.decrypt(secret + 1, ct), m);
}

TEST(ElGamal, HybridSealOpen) {
  const SchnorrGroup& g = default_group();
  const ElGamal eg(g);
  Drbg drbg(std::uint64_t{5});
  const std::uint64_t secret = drbg.next_scalar(g.q());
  const std::uint64_t pub = g.pow_g(secret);
  const Bytes plain = drbg.generate(333);
  const HybridCiphertext ct = eg.seal(pub, plain, drbg);
  EXPECT_NE(ct.body, plain);  // actually encrypted
  const auto opened = eg.open(secret, ct);
  ASSERT_TRUE(opened.has_value());
  EXPECT_EQ(*opened, plain);
}

TEST(ElGamal, HybridTamperDetected) {
  const SchnorrGroup& g = default_group();
  const ElGamal eg(g);
  Drbg drbg(std::uint64_t{6});
  const std::uint64_t secret = drbg.next_scalar(g.q());
  const std::uint64_t pub = g.pow_g(secret);
  HybridCiphertext ct = eg.seal(pub, drbg.generate(64), drbg);
  ct.body[10] ^= 1;
  EXPECT_FALSE(eg.open(secret, ct).has_value());
}

TEST(ElGamal, HybridWrongKeyFails) {
  const SchnorrGroup& g = default_group();
  const ElGamal eg(g);
  Drbg drbg(std::uint64_t{7});
  const std::uint64_t secret = drbg.next_scalar(g.q());
  const std::uint64_t pub = g.pow_g(secret);
  const HybridCiphertext ct = eg.seal(pub, drbg.generate(64), drbg);
  EXPECT_FALSE(eg.open(secret + 1, ct).has_value());
}

// ---- Shamir -----------------------------------------------------------------

TEST(Shamir, ReconstructWithExactThreshold) {
  const SchnorrGroup& g = default_group();
  const Shamir sh(g.q());
  Drbg drbg(std::uint64_t{8});
  const std::uint64_t secret = drbg.next_scalar(g.q());
  const auto shares = sh.split(secret, 3, 5, drbg);
  ASSERT_EQ(shares.size(), 5u);
  const std::vector<Share> subset{shares[0], shares[2], shares[4]};
  EXPECT_EQ(sh.reconstruct(subset), secret);
}

TEST(Shamir, AllSharesAlsoReconstruct) {
  const SchnorrGroup& g = default_group();
  const Shamir sh(g.q());
  Drbg drbg(std::uint64_t{9});
  const std::uint64_t secret = 123456789;
  const auto shares = sh.split(secret, 2, 4, drbg);
  EXPECT_EQ(sh.reconstruct(shares), secret);
}

TEST(Shamir, BelowThresholdGivesWrongSecret) {
  const SchnorrGroup& g = default_group();
  const Shamir sh(g.q());
  Drbg drbg(std::uint64_t{10});
  const std::uint64_t secret = drbg.next_scalar(g.q());
  const auto shares = sh.split(secret, 3, 5, drbg);
  const std::vector<Share> subset{shares[0], shares[1]};
  EXPECT_NE(sh.reconstruct(subset), secret);
}

TEST(Shamir, ThresholdOneIsConstant) {
  const SchnorrGroup& g = default_group();
  const Shamir sh(g.q());
  Drbg drbg(std::uint64_t{11});
  const auto shares = sh.split(42, 1, 3, drbg);
  for (const Share& s : shares) EXPECT_EQ(s.y, 42u);
}

// Property: any qualifying subset reconstructs; swept over (k, n).
class ShamirProperty
    : public ::testing::TestWithParam<std::pair<std::size_t, std::size_t>> {};

TEST_P(ShamirProperty, QualifyingSubsetsReconstruct) {
  const auto [k, n] = GetParam();
  const SchnorrGroup& g = default_group();
  const Shamir sh(g.q());
  Drbg drbg(std::uint64_t{100 + k * 10 + n});
  const std::uint64_t secret = drbg.next_scalar(g.q());
  const auto shares = sh.split(secret, k, n, drbg);
  // Take the first k, the last k, and a strided k.
  std::vector<Share> first(shares.begin(),
                           shares.begin() + static_cast<std::ptrdiff_t>(k));
  std::vector<Share> last(shares.end() - static_cast<std::ptrdiff_t>(k),
                          shares.end());
  EXPECT_EQ(sh.reconstruct(first), secret);
  EXPECT_EQ(sh.reconstruct(last), secret);
}

INSTANTIATE_TEST_SUITE_P(
    Thresholds, ShamirProperty,
    ::testing::Values(std::pair<std::size_t, std::size_t>{1, 1},
                      std::pair<std::size_t, std::size_t>{2, 3},
                      std::pair<std::size_t, std::size_t>{3, 5},
                      std::pair<std::size_t, std::size_t>{5, 8},
                      std::pair<std::size_t, std::size_t>{7, 7}));

// ---- Merkle -----------------------------------------------------------------

TEST(Merkle, ProofsVerify) {
  std::vector<Bytes> payloads;
  for (int i = 0; i < 7; ++i) payloads.push_back(Bytes{static_cast<std::uint8_t>(i)});
  const MerkleTree tree = MerkleTree::from_payloads(payloads);
  for (std::size_t i = 0; i < payloads.size(); ++i) {
    const MerkleProof proof = tree.prove(i);
    EXPECT_TRUE(
        MerkleTree::verify(tree.root(), Sha256::hash(payloads[i]), proof));
  }
}

TEST(Merkle, WrongLeafFails) {
  std::vector<Bytes> payloads{{1}, {2}, {3}, {4}};
  const MerkleTree tree = MerkleTree::from_payloads(payloads);
  const MerkleProof proof = tree.prove(1);
  EXPECT_FALSE(MerkleTree::verify(tree.root(), Sha256::hash(Bytes{9}), proof));
}

TEST(Merkle, WrongIndexFails) {
  std::vector<Bytes> payloads{{1}, {2}, {3}, {4}};
  const MerkleTree tree = MerkleTree::from_payloads(payloads);
  MerkleProof proof = tree.prove(1);
  proof.leaf_index = 2;
  EXPECT_FALSE(
      MerkleTree::verify(tree.root(), Sha256::hash(payloads[1]), proof));
}

TEST(Merkle, SingleLeaf) {
  const MerkleTree tree = MerkleTree::from_payloads({{42}});
  EXPECT_EQ(tree.root(), Sha256::hash(Bytes{42}));
  EXPECT_TRUE(
      MerkleTree::verify(tree.root(), Sha256::hash(Bytes{42}), tree.prove(0)));
}

TEST(Merkle, EmptyTreeHasZeroRoot) {
  const MerkleTree tree{std::vector<Digest>{}};
  EXPECT_EQ(tree.root(), Digest{});
  EXPECT_EQ(tree.leaf_count(), 0u);
}

TEST(Merkle, RootChangesWithAnyLeaf) {
  std::vector<Bytes> payloads{{1}, {2}, {3}, {4}, {5}};
  const MerkleTree t1 = MerkleTree::from_payloads(payloads);
  payloads[3] = Bytes{99};
  const MerkleTree t2 = MerkleTree::from_payloads(payloads);
  EXPECT_NE(t1.root(), t2.root());
}

// ---- Chaum-Pedersen ---------------------------------------------------------

TEST(ChaumPedersenTest, CompletenessForEqualLogs) {
  const SchnorrGroup& g = default_group();
  const ChaumPedersen cp(g);
  Drbg drbg(std::uint64_t{21});
  for (int i = 0; i < 10; ++i) {
    const std::uint64_t x = drbg.next_scalar(g.q());
    const std::uint64_t h = g.pow_g(drbg.next_scalar(g.q()));  // random base
    const std::uint64_t a = g.pow_g(x);
    const std::uint64_t b = g.pow(h, x);
    const auto proof = cp.prove(x, h, b, drbg);
    EXPECT_TRUE(cp.verify(a, h, b, proof));
  }
}

TEST(ChaumPedersenTest, SoundnessAgainstUnequalLogs) {
  const SchnorrGroup& g = default_group();
  const ChaumPedersen cp(g);
  Drbg drbg(std::uint64_t{22});
  const std::uint64_t x = drbg.next_scalar(g.q());
  const std::uint64_t h = g.pow_g(drbg.next_scalar(g.q()));
  const std::uint64_t a = g.pow_g(x);
  // b uses a DIFFERENT exponent: the statement is false.
  const std::uint64_t b = g.pow(h, g.scalar_add(x, 1));
  const auto proof = cp.prove(x, h, b, drbg);
  EXPECT_FALSE(cp.verify(a, h, b, proof));
}

TEST(ChaumPedersenTest, TamperedProofRejected) {
  const SchnorrGroup& g = default_group();
  const ChaumPedersen cp(g);
  Drbg drbg(std::uint64_t{23});
  const std::uint64_t x = drbg.next_scalar(g.q());
  const std::uint64_t h = g.pow_g(drbg.next_scalar(g.q()));
  const std::uint64_t a = g.pow_g(x);
  const std::uint64_t b = g.pow(h, x);
  auto proof = cp.prove(x, h, b, drbg);
  proof.response = g.scalar_add(proof.response, 1);
  EXPECT_FALSE(cp.verify(a, h, b, proof));
}

TEST(ChaumPedersenTest, NonElementInputsRejected) {
  const SchnorrGroup& g = default_group();
  const ChaumPedersen cp(g);
  Drbg drbg(std::uint64_t{24});
  const std::uint64_t x = drbg.next_scalar(g.q());
  const std::uint64_t h = g.pow_g(2);
  const auto proof = cp.prove(x, h, g.pow(h, x), drbg);
  EXPECT_FALSE(cp.verify(0, h, g.pow(h, x), proof));
}

// ---- Cost model -------------------------------------------------------------

// OBU-class per-op costs in Op order, recorded as hex floats so any change
// to the table (or to how it is folded) fails loudly.
constexpr double kPinnedCosts[] = {
    0x1.4f8b588e368fp-18,
    0x1.0c6f7a0b5ed8dp-17,
    0x1.3a92a30553261p-10,
    0x1.0624dd2f1a9fcp-9,
    0x1.a36e2eb1c432dp-10,
    0x1.6f0068db8bac7p-10,
    0x1.89374bc6a7efap-8,
    0x1.26e978d4fdf3cp-7,
    0x1.205bc01a36e2fp-9,
    0x1.d7dbf487fcb93p-10,
};

TEST(CostModel, PerOpCostsMatchPinnedTable) {
  for (std::size_t i = 0; i < std::size(kPinnedCosts); ++i) {
    EXPECT_EQ(cost(static_cast<Op>(i)), kPinnedCosts[i]) << "op " << i;
  }
  OpCounts mixed;
  mixed.hash = 7;
  mixed.hmac = 3;
  mixed.sign = 2;
  mixed.verify = 5;
  mixed.kem_encap = 1;
  mixed.kem_decap = 1;
  mixed.group_sign = 4;
  mixed.group_verify = 6;
  mixed.abe_encrypt_leaves = 9;
  mixed.abe_decrypt_leaves = 3;
  EXPECT_EQ(total(mixed), 0x1.e606fac6045bcp-4);
}

TEST(CostModel, TotalsAccumulate) {
  OpCounts c;
  c.sign = 2;
  c.verify = 1;
  EXPECT_DOUBLE_EQ(total(c), 2 * cost(Op::kSign) + cost(Op::kVerify));
}

TEST(CostModel, OpCountsCompose) {
  OpCounts a;
  a.sign = 1;
  a.hash = 2;
  OpCounts b;
  b.sign = 3;
  b.abe_decrypt_leaves = 4;
  a += b;
  EXPECT_EQ(a.sign, 4u);
  EXPECT_EQ(a.hash, 2u);
  EXPECT_EQ(a.abe_decrypt_leaves, 4u);
}

}  // namespace
}  // namespace vcl::crypto
