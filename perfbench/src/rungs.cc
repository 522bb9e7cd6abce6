#include "rungs.h"

#include <atomic>
#include <filesystem>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "bft/envelope.h"
#include "bft/keyring.h"
#include "crypto/aead.h"
#include "crypto/commitment.h"
#include "crypto/drbg.h"
#include "crypto/hmac.h"
#include "crypto/modgroup.h"
#include "crypto/sha256.h"
#include "rt/runtime.h"
#include "rt/storage.h"
#include "rt/transport.h"
#include "secretshare/arss.h"
#include "stats.h"
#include "threshenc/hybrid.h"
#include "threshenc/tdh2.h"

namespace perfbench {

namespace {

using scab::Bytes;
using scab::to_bytes;
namespace crypto = scab::crypto;

constexpr uint32_t kN = 4;
constexpr uint32_t kF = 1;

/// Times `fn` in `batches` spans of `reps` calls each (after one untimed
/// call) and stores the median per-call time in microseconds.
template <typename Fn>
double timed(RungContext& ctx, int32_t layer, const std::string& name,
             int reps, Fn&& fn, int batches = 5) {
  fn();
  std::vector<double> per_call_us;
  for (int b = 0; b < batches; ++b) {
    const int64_t t0 = mono_ns();
    for (int i = 0; i < reps; ++i) fn();
    const int64_t t1 = mono_ns();
    ctx.spans.add(name, t0, t1, layer);
    per_call_us.push_back(static_cast<double>(t1 - t0) / 1e3 / reps);
  }
  const double us = median(std::move(per_call_us));
  ctx.out[name] = us;
  return us;
}

/// A span covering one layer's rungs.
class LayerSpan {
 public:
  LayerSpan(RungContext& ctx, const char* name)
      : ctx_(ctx), id_(ctx.spans.open(name, mono_ns(), ctx.parent)) {}
  ~LayerSpan() { ctx_.spans.close(id_, mono_ns()); }
  LayerSpan(const LayerSpan&) = delete;
  LayerSpan& operator=(const LayerSpan&) = delete;
  int32_t id() const { return id_; }

 private:
  RungContext& ctx_;
  int32_t id_;
};

/// Spins (yielding) until `flag` reaches `want`.
void await(const std::atomic<uint64_t>& flag, uint64_t want) {
  while (flag.load(std::memory_order_acquire) < want) std::this_thread::yield();
}

/// A bound endpoint that ignores messages (the rungs only post).
struct NullNode final : scab::host::Node {
  void on_message(scab::host::NodeId, scab::BytesView) override {}
};

}  // namespace

void run_crypto_rungs(RungContext& ctx) {
  LayerSpan layer(ctx, "rungs.crypto");
  crypto::Drbg rng(to_bytes("perfbench-crypto"));
  const Bytes key32 = rng.generate(32);
  const Bytes key64 = rng.generate(64);
  const Bytes small = rng.generate(64);
  const Bytes big = rng.generate(4096);
  const Bytes op = rng.generate(ctx.op_bytes);
  timed(ctx, layer.id(), "crypto.hmac_64b_us", 2000,
        [&] { crypto::hmac_sha256(key32, small); });
  timed(ctx, layer.id(), "crypto.sha256_4k_us", 200,
        [&] { crypto::sha256(big); });
  timed(ctx, layer.id(), "crypto.aead_seal_4k_us", 100,
        [&] { crypto::aead_seal(key64, {}, big, rng); });
  const Bytes box = crypto::aead_seal(key64, {}, big, rng);
  timed(ctx, layer.id(), "crypto.aead_open_4k_us", 100,
        [&] { (void)crypto::aead_open(key64, {}, box); });
  const crypto::Commitment cs(key32);
  timed(ctx, layer.id(), "crypto.commit_us", 500,
        [&] { cs.commit(op, rng); });
}

void run_threshenc_rungs(RungContext& ctx) {
  namespace te = scab::threshenc;
  LayerSpan layer(ctx, "rungs.threshenc");
  crypto::Drbg rng(to_bytes("perfbench-threshenc"));
  // The paper's group, the one cp0-batched runs; the other workloads do
  // not use threshold encryption.
  const auto keys =
      te::tdh2_keygen(crypto::ModGroup::modp_1024(), kF + 1, kN, rng);
  std::vector<Bytes> payloads;
  for (int i = 0; i < 16; ++i) payloads.push_back(rng.generate(ctx.op_bytes));
  const Bytes prefix = to_bytes("perfbench-prefix");
  timed(ctx, layer.id(), "threshenc.hybrid_encrypt_b16_us", 2,
        [&] { te::hybrid_encrypt_batch(keys.pk, payloads, prefix, rng); });
  const auto ct = te::hybrid_encrypt_batch(keys.pk, payloads, prefix, rng);
  const Bytes label = te::hybrid_batch_label(prefix, ct.boxes);
  timed(ctx, layer.id(), "threshenc.verify_ct_us", 2,
        [&] { (void)te::hybrid_batch_verify(keys.pk, ct, label); });
  timed(ctx, layer.id(), "threshenc.share_decrypt_us", 2, [&] {
    te::tdh2_share_decrypt_preverified(keys.pk, keys.shares[0], ct.kem, rng);
  });
  std::vector<te::Tdh2DecryptionShare> shares;
  for (uint32_t i = 0; i < kN; ++i) {
    shares.push_back(te::tdh2_share_decrypt_preverified(
        keys.pk, keys.shares[i], ct.kem, rng));
  }
  // A replica batch-verifies the shares its peers sent (ctx.verify_shares
  // of them; duplicates still cost a full slot of the merged equation).
  std::vector<te::Tdh2DecryptionShare> peers;
  for (std::size_t i = 0; i < ctx.verify_shares; ++i) {
    peers.push_back(shares[1 + i % (kN - 1)]);
  }
  timed(ctx, layer.id(), "threshenc.batch_verify_shares_us", 2, [&] {
    (void)te::tdh2_batch_verify_shares(keys.pk, ct.kem, label, peers, rng);
  });
  const std::vector<te::Tdh2DecryptionShare> quorum(shares.begin(),
                                                    shares.begin() + kF + 1);
  timed(ctx, layer.id(), "threshenc.combine_us", 2,
        [&] { (void)te::tdh2_combine_preverified(keys.pk, ct.kem, quorum); });
}

void run_secretshare_rungs(RungContext& ctx) {
  namespace ss = scab::secretshare;
  LayerSpan layer(ctx, "rungs.secretshare");
  crypto::Drbg rng(to_bytes("perfbench-secretshare"));
  const crypto::Commitment cs(rng.generate(32));
  const Bytes small = rng.generate(32);
  const Bytes big = rng.generate(4096);
  timed(ctx, layer.id(), "secretshare.arss1_share_32b_us", 200,
        [&] { ss::arss1_share(small, kF + 1, kN, cs, rng); });
  const auto s1 = ss::arss1_share(small, kF + 1, kN, cs, rng);
  timed(ctx, layer.id(), "secretshare.arss1_recover_32b_us", 200, [&] {
    ss::Arss1Reconstructor rec(cs, kF, s1[0].commitment);
    for (const auto& share : s1) {
      if (rec.add(share)) break;
    }
  });
  timed(ctx, layer.id(), "secretshare.arss2_share_4k_us", 20,
        [&] { ss::arss2_share(big, kF, kN, rng); });
  const auto s2 = ss::arss2_share(big, kF, kN, rng);
  timed(ctx, layer.id(), "secretshare.arss2_recover_4k_us", 20, [&] {
    // CP3: the reconstructor is share holder 0 and trusts its own share.
    ss::Arss2Reconstructor rec(kF, s2[0]);
    for (std::size_t i = 1; i < s2.size(); ++i) {
      if (rec.add(s2[i])) break;
    }
  });
}

void run_bft_rungs(RungContext& ctx) {
  namespace bft = scab::bft;
  LayerSpan layer(ctx, "rungs.bft");
  crypto::Drbg rng(to_bytes("perfbench-bft"));
  const bft::KeyRing keys(to_bytes("perfbench-keyring"), {0, 1, 2, 3});
  for (const std::size_t size : {std::size_t{64}, std::size_t{4096}}) {
    const std::string tag = size == 64 ? "64b" : "4k";
    const Bytes body = rng.generate(size);
    timed(ctx, layer.id(), "bft.envelope_seal_" + tag + "_us", 500, [&] {
      bft::seal_envelope(keys, bft::Channel::kBft, 0, 1, body);
    });
    const Bytes wire = bft::seal_envelope(keys, bft::Channel::kBft, 0, 1, body);
    timed(ctx, layer.id(), "bft.envelope_open_" + tag + "_us", 500,
          [&] { (void)bft::open_envelope(keys, 1, wire); });
  }
}

void run_rt_rungs(RungContext& ctx) {
  namespace rt = scab::rt;
  LayerSpan layer(ctx, "rungs.rt");

  // Two SocketTransports over loopback: A (node 1) <-> B (node 2).
  {
    auto a = std::make_unique<rt::SocketTransport>(0);
    auto b = std::make_unique<rt::SocketTransport>(
        0, std::map<scab::host::NodeId, rt::SocketTransport::Peer>{
               {1, {"127.0.0.1", a->port()}}});
    a->add_peer(2, {"127.0.0.1", b->port()});
    std::atomic<uint64_t> at_a{0};
    std::atomic<uint64_t> at_b{0};
    std::atomic<bool> echo{true};
    rt::SocketTransport* bp = b.get();
    a->set_deliver([&at_a](scab::host::NodeId, scab::host::NodeId, Bytes) {
      at_a.fetch_add(1, std::memory_order_release);
    });
    b->set_deliver([&, bp](scab::host::NodeId, scab::host::NodeId, Bytes m) {
      at_b.fetch_add(1, std::memory_order_release);
      if (echo.load()) bp->send(2, 1, std::move(m));
    });
    a->start();
    b->start();

    auto ping_pong = [&](std::size_t size, int count) {
      const Bytes msg(size, 0x42);
      std::vector<double> rtt_us;
      for (int i = 0; i < count + 100; ++i) {  // 100 warm-up round trips
        const uint64_t want = at_a.load() + 1;
        const int64_t t0 = mono_ns();
        a->send(1, 2, msg);
        await(at_a, want);
        if (i >= 100) rtt_us.push_back(static_cast<double>(mono_ns() - t0) / 1e3);
      }
      return rtt_us;
    };
    int64_t t0 = mono_ns();
    const auto rtt64 = ping_pong(64, 3000);
    ctx.spans.add("rt.socket_rtt_64b", t0, mono_ns(), layer.id());
    ctx.out["rt.socket_rtt_64b_p50_us"] = percentile(rtt64, 0.50);
    ctx.out["rt.socket_rtt_64b_p99_us"] = percentile(rtt64, 0.99);
    t0 = mono_ns();
    const auto rtt4k = ping_pong(4096, 1000);
    ctx.spans.add("rt.socket_rtt_4k", t0, mono_ns(), layer.id());
    ctx.out["rt.socket_rtt_4k_p50_us"] = percentile(rtt4k, 0.50);

    // One-way stream, at most `window` messages in flight.
    echo.store(false);
    const Bytes msg(64, 0x17);
    const uint64_t total = 50000;
    const uint64_t window = 512;
    const uint64_t base = at_b.load();
    t0 = mono_ns();
    for (uint64_t sent = 0; sent < total; ++sent) {
      if (sent >= window) await(at_b, base + sent - window);
      a->send(1, 2, msg);
    }
    await(at_b, base + total);
    const int64_t t1 = mono_ns();
    ctx.spans.add("rt.socket_stream_64b", t0, t1, layer.id());
    ctx.out["rt.socket_msgs_s_64b"] =
        static_cast<double>(total) * 1e9 / static_cast<double>(t1 - t0);
    a->stop();
    b->stop();
  }

  // ThreadHost post A -> B -> A, and a pool job's submit -> continuation,
  // each timed on node A's executor.
  {
    rt::ThreadHost host(nullptr, nullptr, /*pool_threads=*/1);
    NullNode na;
    NullNode nb;
    host.bind(1, &na);
    host.bind(2, &nb);
    const int count = 3000;
    std::vector<double> post_us;
    std::vector<double> pool_us;
    std::atomic<uint64_t> done{0};
    std::function<void(int)> post_round = [&](int left) {
      const scab::host::Time t = host.now();
      host.post(2, [&, left, t] {
        host.post(1, [&, left, t] {
          post_us.push_back(static_cast<double>(host.now() - t) / 1e3);
          if (left > 1) {
            post_round(left - 1);
          } else {
            done.store(1, std::memory_order_release);
          }
        });
      });
    };
    std::function<void(int)> pool_round = [&](int left) {
      const scab::host::Time t = host.now();
      host.submit(1, [&, left, t]() -> std::function<void()> {
        return [&, left, t] {
          pool_us.push_back(static_cast<double>(host.now() - t) / 1e3);
          if (left > 1) {
            pool_round(left - 1);
          } else {
            done.store(2, std::memory_order_release);
          }
        };
      });
    };
    int64_t t0 = mono_ns();
    host.post(1, [&] { post_round(count); });
    await(done, 1);
    ctx.spans.add("rt.post_roundtrip", t0, mono_ns(), layer.id());
    t0 = mono_ns();
    host.post(1, [&] { pool_round(count); });
    await(done, 2);
    ctx.spans.add("rt.pool_roundtrip", t0, mono_ns(), layer.id());
    host.stop();
    ctx.out["rt.post_roundtrip_us"] = median(post_us);
    ctx.out["rt.pool_roundtrip_us"] = median(pool_us);
  }
}

bool run_storage_rungs(RungContext& ctx) {
  namespace rt = scab::rt;
  LayerSpan layer(ctx, "rungs.storage");
  crypto::Drbg rng(to_bytes("perfbench-storage"));
  const Bytes rec = rng.generate(4096);
  const Bytes blob = rng.generate(256 * 1024);
  const std::string base = ctx.scratch_dir + "/storage-rungs";
  bool ok = true;
  {
    rt::FileStorage nosync(base + "/async", rt::FileStorage::Options{false});
    rt::FileStorage durable(base + "/fsync", rt::FileStorage::Options{true});
    ok = nosync.ok() && durable.ok();
    if (ok) {
      timed(ctx, layer.id(), "rt.storage_append_4k_us", 200,
            [&] { nosync.append(rec); });
      timed(ctx, layer.id(), "rt.storage_append_sync_4k_us", 10, [&] {
        durable.append(rec);
        durable.sync();
      });
      timed(ctx, layer.id(), "rt.storage_blob_put_256k_us", 3,
            [&] { durable.put("blob", blob); });
    }
  }
  std::error_code ec;
  std::filesystem::remove_all(base, ec);
  return ok;
}

}  // namespace perfbench
