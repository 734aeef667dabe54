#include "layers.h"

#include <algorithm>

#include "crypto/aes128.h"
#include "crypto/kex.h"
#include "crypto/prf.h"
#include "helpers.h"
#include "obs/fleet.h"
#include "obs/metrics.h"
#include "pki/certificate.h"
#include "scanner/prober.h"
#include "simnet/faults.h"
#include "tls/client.h"

namespace tlsharm::bench {

SpanTotal SpanOf(const obs::ProfSnapshot& snap, std::string_view name) {
  const bool prefix = !name.empty() && name.back() == '.';
  SpanTotal total;
  for (const obs::ProfSpanStats& s : snap.spans) {
    const bool match =
        prefix ? std::string_view(s.name).starts_with(name) : s.name == name;
    if (!match) continue;
    total.count += s.count;
    total.total_ns += s.total_ns;
    total.self_ns += s.self_ns;
  }
  return total;
}

namespace {

double Ms(std::uint64_t ns) { return static_cast<double>(ns) / 1e6; }
double Us(std::uint64_t ns) { return static_cast<double>(ns) / 1e3; }

double Ratio(double part, double whole) { return whole > 0 ? part / whole : 0; }

}  // namespace

void DeriveTracedLayers(const obs::ProfSnapshot& snap, const TracedWork& work,
                        LayerValues* out) {
  LayerValues& v = *out;
  const double ops = static_cast<double>(work.ops);
  const double days = static_cast<double>(SpanOf(snap, "scan.day").count);
  // Self-time shares are of all traced thread-time (the sum of every
  // thread's root spans), so they partition to 100 at any thread count.
  const double thread_ns = static_cast<double>(snap.root_total_ns);

  v["crypto.keygen_per_op"] =
      Ratio(static_cast<double>(SpanOf(snap, "crypto.ffdh.keygen").count), ops);
  v["crypto.sign_per_op"] =
      Ratio(static_cast<double>(SpanOf(snap, "crypto.sign").count), ops);
  v["crypto.verify_per_op"] =
      Ratio(static_cast<double>(SpanOf(snap, "crypto.verify").count), ops);
  v["crypto.prf_per_op"] =
      Ratio(static_cast<double>(SpanOf(snap, "crypto.prf").count), ops);
  v["crypto.self_pct"] = SharePct(
      static_cast<double>(SpanOf(snap, "crypto.").self_ns), thread_ns);
  v["prober.self_pct"] = SharePct(
      static_cast<double>(SpanOf(snap, "scan.probe.").self_ns), thread_ns);
  v["prober.attempts_per_probe"] =
      Ratio(static_cast<double>(work.probe_attempts),
            static_cast<double>(work.probe_probes));

  v["simnet.materializations_per_kop"] =
      Ratio(static_cast<double>(work.materializations), ops / 1000.0);
  v["simnet.evictions_per_kop"] =
      Ratio(static_cast<double>(work.evictions), ops / 1000.0);
  v["simnet.resident_mb"] =
      static_cast<double>(work.resident_bytes) / (1024.0 * 1024.0);

  // Shard utilization: the engine records each worker's busy time and its
  // wait at the merge barrier once per batch.
  std::uint64_t busy_sum = 0;
  std::uint64_t stall_sum = 0;
  double busy_min_pct = 0;
  bool any_track = false;
  for (const obs::ProfTrackStats& t : snap.tracks) {
    const std::uint64_t span = t.busy_ns + t.stall_ns;
    if (span == 0) continue;
    busy_sum += t.busy_ns;
    stall_sum += t.stall_ns;
    const double pct = SharePct(static_cast<double>(t.busy_ns),
                                static_cast<double>(span));
    busy_min_pct = any_track ? std::min(busy_min_pct, pct) : pct;
    any_track = true;
  }
  v["engine.shard_busy_min_pct"] = busy_min_pct;
  v["engine.barrier_wait_pct"] =
      SharePct(static_cast<double>(stall_sum),
               static_cast<double>(busy_sum + stall_sum));
  v["engine.merge_ms_per_day"] = Ratio(Ms(SpanOf(snap, "scan.merge").total_ns), days);

  v["store.append_us_per_row"] =
      Ratio(Us(SpanOf(snap, "scan.store.append").total_ns),
            static_cast<double>(work.obs_rows));
  v["warehouse.encode_ms_per_day"] =
      Ratio(Ms(SpanOf(snap, "warehouse.segment.encode").total_ns), days);
  v["warehouse.commit_ms_per_day"] =
      Ratio(Ms(SpanOf(snap, "warehouse.segment.commit").total_ns), days);
  v["tape.encode_ms_per_day"] =
      Ratio(Ms(SpanOf(snap, "tape.segment.encode").total_ns), days);
  v["tape.commit_ms_per_day"] =
      Ratio(Ms(SpanOf(snap, "tape.segment.commit").total_ns), days);
  v["sinks.bytes_per_row"] = Ratio(static_cast<double>(work.sink_bytes),
                                   static_cast<double>(work.sink_rows));
  const SpanTotal fsync = SpanOf(snap, "durable.fsync");
  v["durable.fsyncs_per_day"] = Ratio(static_cast<double>(fsync.count), days);
  v["durable.fsync_ms_per_day"] = Ratio(Ms(fsync.total_ns), days);
  const SpanTotal commit = SpanOf(snap, "campaign.commit.day");
  v["campaign.commit_ms_per_day"] = Ratio(Ms(commit.total_ns), days);
  v["campaign.commit_pct"] = SharePct(static_cast<double>(commit.total_ns),
                                      static_cast<double>(work.wall_ns));

  // Traced pass wall that no in-program span explains: the benchmark
  // spans' self time plus any wall outside them.
  const SpanTotal bench = SpanOf(snap, kBenchSpanPrefix);
  v["trace.unattributed_pct"] =
      UnattributedPct(work.wall_ns, bench.total_ns - bench.self_ns);
}

namespace {

constexpr int kCryptoReps = 200;
constexpr std::size_t kWorldSample = 100;

// The timed calls' results end here, so none of them is optimized away.
volatile std::uint64_t g_keep = 0;

// Mean microseconds per call of `fn` over `reps` calls.
template <typename Fn>
double MeanUs(int reps, Fn&& fn) {
  const double start = NowSeconds();
  for (int i = 0; i < reps; ++i) fn(i);
  return (NowSeconds() - start) * 1e6 / reps;
}

crypto::Drbg SeededDrbg(std::uint64_t seed, std::uint64_t salt) {
  Bytes material;
  AppendUint(material, seed, 8);
  AppendUint(material, salt, 8);
  return crypto::Drbg(material);
}

// The first `n` trusted HTTPS domains from a seeded starting point.
std::vector<simnet::DomainId> TrustedSample(const simnet::Internet& net,
                                            std::uint64_t seed,
                                            std::size_t n) {
  std::vector<simnet::DomainId> sample;
  const std::size_t count = net.DomainCount();
  const std::size_t start = static_cast<std::size_t>(seed % count);
  for (std::size_t k = 0; k < count && sample.size() < n; ++k) {
    const auto id = static_cast<simnet::DomainId>((start + k) % count);
    if (net.DomainHttps(id) && net.DomainTrusted(id)) sample.push_back(id);
  }
  return sample;
}

void MeasureCrypto(std::uint64_t seed, LayerValues& v) {
  // The fleet's crypto mix: 61-bit FFDHE for DHE, the 61-bit curve for
  // ECDHE, 61-bit Schnorr certificate signatures.
  const crypto::KexGroup* groups[2] = {
      &crypto::GetKexGroup(crypto::NamedGroup::kFfdheSim61),
      &crypto::GetKexGroup(crypto::NamedGroup::kSimEc61)};
  crypto::Drbg drbg = SeededDrbg(seed, 1);
  std::vector<crypto::KexKeyPair> pairs(kCryptoReps);
  v["crypto.kex_keygen_us"] = MeanUs(kCryptoReps, [&](int i) {
    pairs[static_cast<std::size_t>(i)] = groups[i % 2]->GenerateKeyPair(drbg);
  });
  std::size_t shared_ok = 0;
  v["crypto.kex_shared_us"] = MeanUs(kCryptoReps, [&](int i) {
    // Pair i with its same-group neighbour i^2 (same parity, same group).
    const auto& mine = pairs[static_cast<std::size_t>(i)];
    const auto& peer = pairs[static_cast<std::size_t>(i ^ 2)];
    if (groups[i % 2]->SharedSecret(mine.private_key, peer.public_value)) {
      ++shared_ok;
    }
  });

  const crypto::SchnorrScheme& scheme =
      pki::GetScheme(pki::SignatureScheme::kSchnorrSim61);
  const crypto::SchnorrKeyPair key = scheme.GenerateKeyPair(drbg);
  std::vector<Bytes> messages(kCryptoReps);
  for (int i = 0; i < kCryptoReps; ++i) {
    messages[static_cast<std::size_t>(i)] = drbg.Generate(64);
  }
  std::vector<crypto::SchnorrSignature> sigs(kCryptoReps);
  v["crypto.sign_us"] = MeanUs(kCryptoReps, [&](int i) {
    sigs[static_cast<std::size_t>(i)] =
        scheme.Sign(key.private_key, messages[static_cast<std::size_t>(i)], drbg);
  });
  std::size_t verified = 0;
  v["crypto.verify_us"] = MeanUs(kCryptoReps, [&](int i) {
    if (scheme.Verify(key.public_key, messages[static_cast<std::size_t>(i)],
                      sigs[static_cast<std::size_t>(i)])) {
      ++verified;
    }
  });

  Bytes premaster = drbg.Generate(48);
  Bytes client_random = drbg.Generate(32);
  Bytes server_random = drbg.Generate(32);
  std::uint64_t sink = 0;
  v["crypto.prf_us"] = MeanUs(kCryptoReps, [&](int i) {
    client_random[0] = static_cast<std::uint8_t>(i);  // defeat memoization
    client_random[1] = static_cast<std::uint8_t>(i >> 8);
    sink += crypto::DeriveMasterSecret(premaster, client_random,
                                       server_random)[0];
  });

  Bytes key_bytes = drbg.Generate(16);
  Bytes iv_bytes = drbg.Generate(16);
  const crypto::Aes128 cipher(crypto::ToAesKey(key_bytes));
  const crypto::AesBlock iv = crypto::ToAesBlock(iv_bytes);
  Bytes plaintext = drbg.Generate(4096);
  constexpr int kAesReps = 64;
  v["crypto.aes_cbc_us_per_kib"] =
      MeanUs(kAesReps, [&](int i) {
        plaintext[0] = static_cast<std::uint8_t>(i);
        sink += crypto::Aes128CbcEncrypt(cipher, iv, plaintext)[0];
      }) /
      4.0;
  g_keep = shared_ok + verified + sink;
}

// Connect + full handshake offering `suites`; mean microseconds over the
// sample.
double HandshakeUs(simnet::Internet& net,
                   const std::vector<simnet::DomainId>& sample, SimTime at,
                   std::vector<tls::CipherSuite> suites, std::uint64_t seed) {
  if (sample.empty()) return 0;
  tls::ClientConfig config;
  config.offered_suites = std::move(suites);
  config.root_store = &net.NssRootStore();
  const double start = NowSeconds();
  for (std::size_t i = 0; i < sample.size(); ++i) {
    config.server_name = net.DomainName(sample[i]);
    simnet::Internet::ConnectOutcome conn =
        net.ConnectDetailed(sample[i], at + static_cast<SimTime>(i));
    if (conn.connection == nullptr) continue;
    crypto::Drbg drbg = SeededDrbg(seed, 100 + i);
    tls::TlsClient client(&config);
    client.Handshake(*conn.connection, at + static_cast<SimTime>(i), drbg);
  }
  return (NowSeconds() - start) * 1e6 / static_cast<double>(sample.size());
}

void MeasureWorldLayers(simnet::Internet& net, std::uint64_t seed, SimTime at,
                        LayerValues& v) {
  net.SetFaultSpec(simnet::FaultSpec{});
  const std::vector<simnet::DomainId> sample =
      TrustedSample(net, seed, kWorldSample);
  // One untimed round first, so the sample's terminators are derived and
  // the timings below are of the handshakes alone.
  HandshakeUs(net, sample, at - kMinute,
              {tls::CipherSuite::kEcdheWithAes128CbcSha256}, seed);
  v["tls.handshake_full_us"] =
      HandshakeUs(net, sample, at,
                  {tls::CipherSuite::kEcdheWithAes128CbcSha256,
                   tls::CipherSuite::kDheWithAes128CbcSha256,
                   tls::CipherSuite::kStaticWithAes128CbcSha256},
                  seed);
  v["tls.handshake_dhe_us"] =
      HandshakeUs(net, sample, at + kMinute,
                  {tls::CipherSuite::kDheWithAes128CbcSha256}, seed);

  scanner::Prober prober(net, seed);
  scanner::ProbeOptions options;
  options.want_full_result = true;
  std::vector<scanner::StoredSession> sessions;
  const SimTime probe_at = at + 2 * kMinute;
  double start = NowSeconds();
  for (simnet::DomainId id : sample) {
    sessions.push_back(prober.Probe(id, probe_at, options).session);
  }
  v["prober.probe_us"] = sample.empty() ? 0
                                         : (NowSeconds() - start) * 1e6 /
                                               static_cast<double>(sample.size());

  // Session-cache hits per lookup over the resumption probes below; the
  // fleet sweep's counters are cumulative, so take the difference.
  obs::MetricsRegistry before;
  obs::CollectFleetMetrics(net, probe_at, before);
  double id_s = 0;
  double ticket_s = 0;
  std::size_t id_n = 0;
  std::size_t ticket_n = 0;
  for (std::size_t i = 0; i < sample.size(); ++i) {
    const scanner::StoredSession& session = sessions[i];
    if (!session.valid) continue;
    if (!session.session_id.empty()) {
      start = NowSeconds();
      prober.TryResumeId(session, sample[i], probe_at + 1);
      id_s += NowSeconds() - start;
      ++id_n;
    }
    if (!session.ticket.empty()) {
      start = NowSeconds();
      prober.TryResumeTicket(session, sample[i], probe_at + 2);
      ticket_s += NowSeconds() - start;
      ++ticket_n;
    }
  }
  obs::MetricsRegistry after;
  obs::CollectFleetMetrics(net, probe_at + 2, after);
  auto delta = [&](const char* name) {
    return static_cast<double>(after.GetCounter(name).Value() -
                               before.GetCounter(name).Value());
  };
  v["server.session_hit_pct"] =
      SharePct(delta("fleet.session.hits"), delta("fleet.session.lookups"));
  v["prober.resume_id_us"] = id_n > 0 ? id_s * 1e6 / static_cast<double>(id_n) : 0;
  v["prober.resume_ticket_us"] =
      ticket_n > 0 ? ticket_s * 1e6 / static_cast<double>(ticket_n) : 0;
}

void MeasureMaterialize(simnet::Internet& fresh, std::uint64_t seed,
                        LayerValues& v) {
  const std::size_t terminators = fresh.TerminatorCount();
  if (terminators == 0) return;
  const std::size_t n = std::min<std::size_t>(200, terminators);
  // Distinct ids, evenly strided over the fleet from a seeded offset.
  const std::size_t step = std::max<std::size_t>(1, terminators / n);
  const std::size_t offset = static_cast<std::size_t>(seed % step);
  const double start = NowSeconds();
  std::size_t built = 0;
  for (std::size_t k = 0; k < n; ++k) {
    const std::size_t id = offset + k * step;
    if (id >= terminators) break;
    fresh.TerminatorHandle(static_cast<simnet::TerminatorId>(id));
    ++built;
  }
  v["simnet.materialize_us"] =
      built > 0 ? (NowSeconds() - start) * 1e6 / static_cast<double>(built)
                : 0;
}

}  // namespace

void MeasureIsolatedLayers(simnet::Internet& world, simnet::Internet& fresh,
                           std::uint64_t seed, SimTime at, LayerValues* out) {
  MeasureCrypto(seed, *out);
  MeasureWorldLayers(world, seed, at, *out);
  MeasureMaterialize(fresh, seed, *out);
}

}  // namespace tlsharm::bench
