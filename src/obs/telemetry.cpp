#include "obs/telemetry.h"

#include <cstdio>

#include "common/json.h"

namespace rapar::obs {

Telemetry::Entry& Telemetry::Upsert(std::string_view name, bool is_gauge) {
  for (Entry& e : entries_) {
    if (e.name == name) return e;
  }
  entries_.push_back(Entry{std::string(name), is_gauge, 0, 0.0});
  return entries_.back();
}

const Telemetry::Entry* Telemetry::Lookup(std::string_view name) const {
  for (const Entry& e : entries_) {
    if (e.name == name) return &e;
  }
  return nullptr;
}

void Telemetry::SetCounter(std::string_view name, std::uint64_t value) {
  Entry& e = Upsert(name, /*is_gauge=*/false);
  e.is_gauge = false;
  e.counter = value;
}

void Telemetry::AddCounter(std::string_view name, std::uint64_t value) {
  Entry& e = Upsert(name, /*is_gauge=*/false);
  e.counter += value;
}

std::uint64_t Telemetry::counter(std::string_view name) const {
  const Entry* e = Lookup(name);
  return e == nullptr ? 0 : e->counter;
}

void Telemetry::SetGauge(std::string_view name, double value) {
  Entry& e = Upsert(name, /*is_gauge=*/true);
  e.is_gauge = true;
  e.gauge = value;
}

double Telemetry::gauge(std::string_view name) const {
  const Entry* e = Lookup(name);
  return e == nullptr ? 0.0 : e->gauge;
}

bool Telemetry::Has(std::string_view name) const {
  return Lookup(name) != nullptr;
}

void Telemetry::Merge(const Telemetry& other) {
  for (const Entry& e : other.entries_) {
    if (e.is_gauge) {
      Entry& mine = Upsert(e.name, /*is_gauge=*/true);
      mine.is_gauge = true;
      mine.gauge += e.gauge;
    } else {
      AddCounter(e.name, e.counter);
    }
  }
}

void Telemetry::WriteJson(JsonWriter& w) const {
  w.BeginObject();
  for (const Entry& e : entries_) {
    w.Key(e.name);
    if (e.is_gauge) {
      w.Double(e.gauge);
    } else {
      w.UInt(e.counter);
    }
  }
  w.EndObject();
}

std::string Telemetry::ToString() const {
  std::string out;
  for (const Entry& e : entries_) {
    if (!out.empty()) out += ' ';
    out += e.name;
    out += '=';
    if (e.is_gauge) {
      char buf[40];
      std::snprintf(buf, sizeof(buf), "%.3f", e.gauge);
      out += buf;
    } else {
      out += std::to_string(e.counter);
    }
  }
  return out;
}

}  // namespace rapar::obs
