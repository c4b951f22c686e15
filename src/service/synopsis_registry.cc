#include "service/synopsis_registry.h"

#include <algorithm>
#include <string>
#include <utility>

#include "common/fault.h"

namespace xee::service {

std::string_view SynopsisHealthName(SynopsisHealth h) {
  switch (h) {
    case SynopsisHealth::kHealthy:
      return "healthy";
    case SynopsisHealth::kStale:
      return "stale";
    case SynopsisHealth::kUnknown:
      break;
  }
  return "unknown";
}

uint64_t SynopsisRegistry::Register(
    const std::string& name, estimator::Synopsis synopsis,
    std::shared_ptr<const xml::Document> document) {
  return Register(name,
                  std::make_shared<const estimator::Synopsis>(
                      std::move(synopsis)),
                  std::move(document));
}

uint64_t SynopsisRegistry::Register(
    const std::string& name,
    std::shared_ptr<const estimator::Synopsis> synopsis,
    std::shared_ptr<const xml::Document> document) {
  // ExactEvaluator construction walks the whole document; do it outside
  // the lock, like deserialization in RegisterSerialized.
  std::shared_ptr<const GroundTruth> truth;
  if (document != nullptr) {
    truth = std::make_shared<const GroundTruth>(std::move(document));
  }
  // The replaced version is released after the lock: tearing down a
  // synopsis and its truth must not stall every reader's Snapshot().
  SynopsisSnapshot old;
  std::lock_guard<std::mutex> lock(mu_);
  quarantine_.erase(name);
  SynopsisSnapshot& slot = map_[name];
  old = std::move(slot);
  slot.synopsis = std::move(synopsis);
  slot.epoch = next_epoch_++;
  slot.order_quarantined = false;
  slot.health = SynopsisHealth::kUnknown;
  slot.truth = std::move(truth);
  return slot.epoch;
}

bool SynopsisRegistry::AttachDocument(
    const std::string& name, std::shared_ptr<const xml::Document> document) {
  std::shared_ptr<const GroundTruth> truth;
  if (document != nullptr) {
    truth = std::make_shared<const GroundTruth>(std::move(document));
  }
  std::shared_ptr<const GroundTruth> old;  // released after the lock
  std::lock_guard<std::mutex> lock(mu_);
  auto it = map_.find(name);
  if (it == map_.end()) return false;
  old = std::exchange(it->second.truth, std::move(truth));
  return true;
}

bool SynopsisRegistry::MarkHealth(const std::string& name, uint64_t epoch,
                                  SynopsisHealth health) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = map_.find(name);
  if (it == map_.end() || it->second.epoch != epoch) return false;
  it->second.health = health;
  return true;
}

std::optional<SynopsisHealth> SynopsisRegistry::Health(
    const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = map_.find(name);
  if (it == map_.end()) return std::nullopt;
  return it->second.health;
}

std::vector<SynopsisHealthRow> SynopsisRegistry::HealthRows() const {
  std::vector<SynopsisHealthRow> rows;
  {
    std::lock_guard<std::mutex> lock(mu_);
    rows.reserve(map_.size());
    for (const auto& [name, snap] : map_) {
      SynopsisHealthRow row;
      row.name = name;
      row.epoch = snap.epoch;
      row.health = snap.health;
      row.order_quarantined = snap.order_quarantined;
      row.has_truth = snap.truth != nullptr;
      rows.push_back(std::move(row));
    }
  }
  std::sort(rows.begin(), rows.end(),
            [](const SynopsisHealthRow& a, const SynopsisHealthRow& b) {
              return a.name < b.name;
            });
  return rows;
}

std::vector<std::pair<std::string, Status>> SynopsisRegistry::QuarantinedNames()
    const {
  std::vector<std::pair<std::string, Status>> out;
  {
    std::lock_guard<std::mutex> lock(mu_);
    out.reserve(quarantine_.size());
    for (const auto& [name, status] : quarantine_) {
      out.emplace_back(name, status);
    }
  }
  std::sort(out.begin(), out.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  return out;
}

LoadOutcome SynopsisRegistry::RegisterSerialized(const std::string& name,
                                                 std::string_view blob) {
  // Deserialization is the expensive part; run it (and the injected
  // bit-rot) outside the lock so loads never stall serving.
  std::string bytes(blob);
  uint64_t rot = 0;
  if (!bytes.empty() && FaultFires(kBitrotFaultSite, &rot)) {
    bytes[rot % bytes.size()] ^=
        static_cast<char>(1u << ((rot >> 32) % 8));
  }

  estimator::DeserializeOptions opts;
  opts.salvage_order_corruption = true;
  estimator::DeserializeReport report;
  Result<estimator::Synopsis> syn =
      estimator::Synopsis::Deserialize(bytes, opts, &report);

  LoadOutcome out;
  // Declared before the lock guards, so the replaced version is torn
  // down after they unlock.
  SynopsisSnapshot old;
  if (!syn.ok()) {
    out.status = syn.status();
    std::lock_guard<std::mutex> lock(mu_);
    // The old version (if any) is as suspect as the blob that was meant
    // to replace it is broken — a swap is a statement that the previous
    // data is stale. Pull the name from serving entirely.
    auto it = map_.find(name);
    if (it != map_.end()) {
      old = std::move(it->second);
      map_.erase(it);
    }
    quarantine_[name] = out.status;
    return out;
  }

  auto shared = std::make_shared<const estimator::Synopsis>(
      std::move(syn).value());
  std::lock_guard<std::mutex> lock(mu_);
  quarantine_.erase(name);
  SynopsisSnapshot& slot = map_[name];
  old = std::move(slot);
  slot.synopsis = std::move(shared);
  slot.epoch = next_epoch_++;
  slot.order_quarantined = report.order_dropped;
  // A blob carries no source document: the new version starts unaudited
  // (no oracle) until AttachDocument supplies one.
  slot.health = SynopsisHealth::kUnknown;
  slot.truth = nullptr;
  out.epoch = slot.epoch;
  out.order_dropped = report.order_dropped;
  return out;
}

bool SynopsisRegistry::Remove(const std::string& name) {
  SynopsisSnapshot old;  // released after the lock
  std::lock_guard<std::mutex> lock(mu_);
  const bool quarantined = quarantine_.erase(name) > 0;
  auto it = map_.find(name);
  if (it == map_.end()) return quarantined;
  old = std::move(it->second);
  map_.erase(it);
  return true;
}

std::optional<SynopsisSnapshot> SynopsisRegistry::Snapshot(
    const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = map_.find(name);
  if (it == map_.end()) return std::nullopt;
  return it->second;
}

std::optional<Status> SynopsisRegistry::Quarantined(
    const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = quarantine_.find(name);
  if (it == quarantine_.end()) return std::nullopt;
  return it->second;
}

std::vector<std::string> SynopsisRegistry::Names() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> names;
  names.reserve(map_.size());
  for (const auto& [name, snap] : map_) names.push_back(name);
  return names;
}

}  // namespace xee::service
