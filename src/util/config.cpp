#include "util/config.hpp"

#include <cstdlib>
#include <sstream>

namespace hyflow {

Config Config::from_args(int argc, char** argv) {
  Config cfg;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) == 0) {
      const auto eq = arg.find('=');
      if (eq == std::string::npos) {
        cfg.set(arg.substr(2), "true");
      } else {
        cfg.set(arg.substr(2, eq - 2), arg.substr(eq + 1));
      }
    } else {
      cfg.positional_.push_back(std::move(arg));
    }
  }
  return cfg;
}

void Config::set(const std::string& key, const std::string& value) {
  values_[key] = value;
}

bool Config::has(const std::string& key) const { return values_.count(key) > 0; }

std::optional<std::string> Config::raw(const std::string& key) const {
  auto it = values_.find(key);
  if (it == values_.end()) return std::nullopt;
  return it->second;
}

std::string Config::get_string(const std::string& key, const std::string& def) const {
  return raw(key).value_or(def);
}

std::int64_t Config::get_int(const std::string& key, std::int64_t def) const {
  auto v = raw(key);
  if (!v) return def;
  return std::strtoll(v->c_str(), nullptr, 10);
}

double Config::get_double(const std::string& key, double def) const {
  auto v = raw(key);
  if (!v) return def;
  return std::strtod(v->c_str(), nullptr);
}

bool Config::get_bool(const std::string& key, bool def) const {
  auto v = raw(key);
  if (!v) return def;
  return *v == "true" || *v == "1" || *v == "yes" || *v == "on";
}

std::vector<std::int64_t> Config::get_int_list(const std::string& key,
                                               std::vector<std::int64_t> def) const {
  auto v = raw(key);
  if (!v) return def;
  std::vector<std::int64_t> out;
  std::stringstream ss(*v);
  std::string part;
  while (std::getline(ss, part, ',')) {
    if (!part.empty()) out.push_back(std::strtoll(part.c_str(), nullptr, 10));
  }
  return out.empty() ? def : out;
}

}  // namespace hyflow
