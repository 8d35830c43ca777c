#include "store/session_log.hpp"

#include <algorithm>
#include <utility>

#include "util/blob.hpp"

namespace stpx::store {

namespace {
// Distinct from every per-protocol state tag (those are small ints like
// 101/102), so a protocol blob fed to from_payload is rejected outright.
constexpr std::int64_t kManifestTag = 7001;
}  // namespace

std::uint64_t proto_tag_of(const std::string& name) {
  std::uint64_t h = 14695981039346656037ULL;
  for (unsigned char c : name) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

std::string SessionManifest::to_payload() const {
  util::BlobWriter w;
  w.i64(kManifestTag);
  w.u64(session);
  w.boolean(is_sender);
  w.u64(epoch);
  w.u64(seq);
  w.u64(proto_tag);
  w.u64(position);
  w.boolean(completed);
  w.u64(owner);
  // save_state() produces blob text by construction; nested() treats
  // anything else as an empty (cold-start) state rather than corrupting
  // the record.
  w.nested(endpoint_state);
  return w.str();
}

std::optional<SessionManifest> SessionManifest::from_payload(
    const std::string& payload) {
  util::BlobReader r(payload);
  std::int64_t tag = 0;
  SessionManifest m;
  std::uint64_t session = 0;
  std::uint64_t owner = 0;
  // proto_tag is a full 64-bit hash that to_payload() writes through the
  // signed i64 form, so half of all tags read back negative.
  std::int64_t proto_tag = 0;
  std::vector<std::int64_t> inner;
  if (!r.i64(tag) || tag != kManifestTag || !r.u64(session) ||
      !r.boolean(m.is_sender) || !r.u64(m.epoch) || !r.u64(m.seq) ||
      !r.i64(proto_tag) || !r.u64(m.position) || !r.boolean(m.completed) ||
      !r.u64(owner) || !r.vec(inner) || !r.done() ||
      session > 0xFFFFFFFFULL || owner > 0xFFFFFFFFULL) {
    return std::nullopt;
  }
  m.proto_tag = static_cast<std::uint64_t>(proto_tag);
  m.session = static_cast<std::uint32_t>(session);
  m.owner = static_cast<std::uint32_t>(owner);
  m.endpoint_state = util::blob_join(inner);
  return m;
}

SessionLogScan scan_session_logs(const std::vector<IStableStore*>& stores) {
  SessionLogScan scan;
  for (IStableStore* store : stores) {
    if (store == nullptr) continue;
    ReplayResult r = store->replay();
    scan.records_skipped += r.records_skipped;
    for (const std::string& payload : r.payloads) {
      auto m = SessionManifest::from_payload(payload);
      if (!m) {
        ++scan.records_skipped;
        continue;
      }
      ++scan.records_scanned;
      scan.max_epoch = std::max(scan.max_epoch, m->epoch);
      auto it = scan.newest.find(m->session);
      if (it == scan.newest.end()) {
        scan.newest.emplace(m->session, std::move(*m));
      } else if (m->newer_than(it->second)) {
        it->second = std::move(*m);
      }
    }
  }
  return scan;
}

std::vector<std::uint32_t> manifested_sessions(
    const std::vector<IStableStore*>& stores) {
  const SessionLogScan scan = scan_session_logs(stores);
  std::vector<std::uint32_t> out;
  out.reserve(scan.newest.size());
  for (const auto& [id, m] : scan.newest) {
    if (!m.is_sender) out.push_back(id);  // map iteration: already id order
  }
  return out;
}

std::uint64_t compact_session_log(IStableStore& store) {
  const SessionLogScan scan = scan_session_logs({&store});
  std::vector<const SessionManifest*> kept;
  kept.reserve(scan.newest.size());
  for (const auto& [id, m] : scan.newest) kept.push_back(&m);
  std::sort(kept.begin(), kept.end(),
            [](const SessionManifest* a, const SessionManifest* b) {
              return b->newer_than(*a);
            });
  std::vector<std::string> payloads;
  payloads.reserve(kept.size());
  for (const SessionManifest* m : kept) payloads.push_back(m->to_payload());
  store.reset();
  store.append_batch(payloads);
  const std::uint64_t total = scan.records_scanned + scan.records_skipped;
  return total > payloads.size() ? total - payloads.size() : 0;
}

}  // namespace stpx::store
