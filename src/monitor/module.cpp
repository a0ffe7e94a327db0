#include "monitor/module.h"

#include <algorithm>
#include <stdexcept>

#include "common/log.h"

namespace netqos::mon {

Module::~Module() {
  if (host_ != nullptr) host_->detach(*this);
}

ModuleHost::ModuleHost(ModuleCore& core, obs::MetricsRegistry& metrics,
                       std::string station)
    : core_(core), metrics_(metrics), station_(std::move(station)) {}

ModuleHost::~ModuleHost() {
  // Externally owned modules outliving the host must not dangle into it.
  for (Entry& entry : entries_) entry.module->host_ = nullptr;
}

ModuleHost::Entry& ModuleHost::register_module(
    Module& module, std::unique_ptr<Module> owned) {
  if (module.host_ != nullptr) {
    throw std::logic_error("module '" + module.name() +
                           "' is already registered with a host");
  }
  std::string label = module.name();
  for (int suffix = 2; find(label) != nullptr; ++suffix) {
    label = module.name() + "#" + std::to_string(suffix);
  }
  module.name_ = label;
  module.host_ = this;

  Entry entry;
  entry.module = &module;
  entry.owned = std::move(owned);
  entry.interface_consumer = module.wants_interface_samples();
  const obs::Labels labels = {{"module", label}, {"station", station_}};
  entry.samples = &metrics_.counter(
      "netqos_module_samples_total",
      "Stream samples delivered to the module", labels);
  entry.errors = &metrics_.counter(
      "netqos_module_errors_total",
      "Deliveries lost to an exception thrown by the module", labels);
  entry.footprint = &metrics_.gauge(
      "netqos_module_footprint_bytes",
      "Bytes of state the module currently retains", labels);
  entries_.push_back(std::move(entry));
  if (module.wants_interface_samples()) ++interface_consumers_;

  Entry& stored = entries_.back();
  guarded(stored, "init", [&] { module.init(core_); });
  return stored;
}

Module& ModuleHost::add(std::unique_ptr<Module> module) {
  Module& ref = *module;
  register_module(ref, std::move(module));
  return ref;
}

Module& ModuleHost::attach(Module& module) {
  register_module(module, nullptr);
  return module;
}

bool ModuleHost::detach(Module& module) {
  auto it = std::find_if(
      entries_.begin(), entries_.end(),
      [&module](const Entry& entry) { return entry.module == &module; });
  if (it == entries_.end()) return false;
  if (it->interface_consumer) --interface_consumers_;
  module.host_ = nullptr;
  entries_.erase(it);
  return true;
}

template <typename Fn>
void ModuleHost::guarded(const Entry& entry, const char* hook, Fn&& fn) {
  try {
    fn();
  } catch (const std::exception& e) {
    entry.errors->inc();
    NETQOS_WARN_C("module") << station_ << ": module " << entry.module->name()
                            << " threw in " << hook << ": " << e.what();
  } catch (...) {
    entry.errors->inc();
    NETQOS_WARN_C("module") << station_ << ": module " << entry.module->name()
                            << " threw in " << hook;
  }
}

void ModuleHost::dispatch_interface_sample(const InterfaceKey& interface,
                                           SimTime time,
                                           const RateSample& rate) {
  // Index loop: a module must survive another being detached mid-round.
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    const Entry& entry = entries_[i];
    if (!entry.interface_consumer) continue;
    entry.samples->inc();
    guarded(entry, "on_interface_sample", [&] {
      entry.module->on_interface_sample(interface, time, rate);
    });
  }
}

void ModuleHost::dispatch_path_sample(const PathKey& key, SimTime time,
                                      const PathUsage& usage) {
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    const Entry& entry = entries_[i];
    entry.samples->inc();
    guarded(entry, "on_path_sample",
            [&] { entry.module->on_path_sample(key, time, usage); });
  }
}

void ModuleHost::run_round(SimTime round_start) {
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    const Entry& entry = entries_[i];
    guarded(entry, "produce",
            [&] { entry.module->produce(core_, round_start); });
  }
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    const Entry& entry = entries_[i];
    guarded(entry, "on_round_end",
            [&] { entry.module->on_round_end(round_start); });
    entry.footprint->set(
        static_cast<double>(entry.module->footprint_bytes()));
  }
}

void ModuleHost::flush() {
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    const Entry& entry = entries_[i];
    guarded(entry, "flush", [&] { entry.module->flush(); });
  }
}

Module* ModuleHost::find(const std::string& name) const {
  for (const Entry& entry : entries_) {
    if (entry.module->name() == name) return entry.module;
  }
  return nullptr;
}

std::vector<ModuleStatus> ModuleHost::statuses() const {
  std::vector<ModuleStatus> out;
  out.reserve(entries_.size());
  for (const Entry& entry : entries_) {
    ModuleStatus status;
    status.name = entry.module->name();
    status.samples = entry.samples->value();
    status.errors = entry.errors->value();
    status.footprint_bytes = entry.module->footprint_bytes();
    status.notes = entry.module->notes();
    out.push_back(std::move(status));
  }
  return out;
}

std::uint64_t ModuleHost::total_errors() const {
  std::uint64_t total = 0;
  for (const Entry& entry : entries_) total += entry.errors->value();
  return total;
}

}  // namespace netqos::mon
