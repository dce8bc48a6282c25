#include "refs.h"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace e2e {

bool extract_table(const std::string& out, std::string* table, Values* values) {
  std::istringstream is(out);
  std::string line;
  bool in_table = false;
  table->clear();
  values->clear();
  while (std::getline(is, line)) {
    if (!in_table) {
      in_table = line.rfind("band ", 0) == 0;
      continue;
    }
    if (line.empty() || !std::isdigit(static_cast<unsigned char>(line[0])))
      break;
    *table += line + "\n";
    std::istringstream row(line);
    for (double v; row >> v;) values->push_back(v);
  }
  return !values->empty();
}

bool within(const Values& got, const Values& ref, double tol) {
  if (got.size() != ref.size()) return false;
  for (std::size_t i = 0; i < got.size(); ++i)
    if (!(std::fabs(got[i] - ref[i]) <= tol)) return false;
  return true;
}

void References::load(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read references " + path);
  std::string line;
  while (std::getline(in, line)) {
    if (const auto hash = line.find('#'); hash != std::string::npos)
      line.erase(hash);
    std::istringstream row(line);
    std::string key;
    std::size_t n = 0;
    if (!(row >> key)) continue;
    if (!(row >> n)) throw std::runtime_error("references: bad line for " + key);
    Values v(n);
    for (double& x : v)
      if (!(row >> x)) throw std::runtime_error("references: short line for " + key);
    refs_[key] = std::move(v);
  }
}

void References::save(const std::string& path) const {
  std::ofstream out(path);
  out << "# xgw end-to-end benchmark references: key, value count, values.\n"
         "# Per band: band index, then the run_job table columns\n"
         "# (eV; Z dimensionless).\n"
         "# Regenerate: python3 e2ebench/run.py --write-references\n";
  char buf[40];
  for (const auto& [key, v] : refs_) {
    out << key << " " << v.size();
    for (double x : v) {
      std::snprintf(buf, sizeof buf, " %.17g", x);
      out << buf;
    }
    out << "\n";
  }
  if (!out) throw std::runtime_error("cannot write references " + path);
}

const Values& References::at(const std::string& key) const {
  const auto it = refs_.find(key);
  if (it == refs_.end())
    throw std::runtime_error("no committed reference for spec " + key);
  return it->second;
}

}  // namespace e2e
