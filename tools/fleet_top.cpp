// fleet_top: a text-mode "top" for a live fleet.
//
// Polls an obs::ExportServer endpoint (bench_fleet --serve-metrics, trace_tool
// --serve-metrics, or any embedding that wires Scope + SloTracker into an
// ExportServer) and renders a refreshing table: fleet totals with a rounds/s
// rate derived from successive scrapes, the per-shard SLO series, and the
// worst-burn tenants from /tenants.
//
//   fleet_top <port> [--host 127.0.0.1] [--interval-ms 1000] [--top 10]
//             [--once]
//   fleet_top --endpoints <p1,p2,host:p3,...> [same flags]
//
// --once prints a single frame without clearing the screen (scripts, docs,
// tests). Everything is parsed from the Prometheus text exposition — the tool
// depends only on the rrsched library's HttpGet client.
//
// Multi-endpoint mode (--endpoints) watches a distributed fleet: every
// worker process of a DistController serves its own /metrics (rrs_worker_*
// series), and the controller serves the aggregate. Point --endpoints at
// all of them — each endpoint gets a per-worker row (ticks, rounds, a
// rounds/s rate from successive scrapes, completions, restores), the rates
// are summed into an aggregate fleet line, and any endpoint that turns out
// to be a controller (it exports rrs_fleet_slo_*) also renders the classic
// totals + worst-burn view below the worker table. A dead endpoint renders
// as "down" instead of failing the whole dashboard — workers die and fail
// over; the dashboard should watch that happen, not exit.
#include <chrono>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "obs/export_server.h"
#include "obs/trace.h"

namespace {

// One scrape of /metrics, parsed. Keys are full series names including the
// label block, e.g. `rrs_fleet_slo_rounds` or `rrs_fleet_slo_rounds{shard="3"}`.
struct Frame {
  std::map<std::string, double> series;
  int64_t scrape_ns = 0;
  bool ok = false;

  double Get(const std::string& name) const {
    auto it = series.find(name);
    return it == series.end() ? 0.0 : it->second;
  }
};

Frame Scrape(const std::string& host, int port) {
  Frame frame;
  std::string error;
  const std::string body =
      rrs::obs::HttpGet(host, port, "/metrics", &error);
  frame.scrape_ns = rrs::obs::NowNs();
  if (body.empty() && !error.empty()) return frame;
  size_t pos = 0;
  while (pos < body.size()) {
    size_t eol = body.find('\n', pos);
    if (eol == std::string::npos) eol = body.size();
    const std::string_view line(body.data() + pos, eol - pos);
    pos = eol + 1;
    if (line.empty() || line[0] == '#') continue;
    const size_t space = line.rfind(' ');
    if (space == std::string_view::npos || space == 0) continue;
    const std::string name(line.substr(0, space));
    frame.series[name] = std::strtod(line.data() + space + 1, nullptr);
  }
  frame.ok = true;
  return frame;
}

// Minimal extraction from the /tenants JSON array (flat objects with numeric
// fields only, as rendered by SloTracker::TenantsJson).
struct TenantRow {
  uint64_t tenant = 0;
  uint64_t shard = 0;
  uint64_t window_misses = 0;
  double burn = 0.0;
};

double JsonField(std::string_view object, const char* key) {
  const std::string needle = std::string("\"") + key + "\":";
  const size_t at = object.find(needle);
  if (at == std::string_view::npos) return 0.0;
  return std::strtod(object.data() + at + needle.size(), nullptr);
}

std::vector<TenantRow> FetchTenants(const std::string& host, int port) {
  std::vector<TenantRow> rows;
  const std::string body = rrs::obs::HttpGet(host, port, "/tenants");
  size_t pos = 0;
  while ((pos = body.find('{', pos)) != std::string::npos) {
    const size_t end = body.find('}', pos);
    if (end == std::string::npos) break;
    const std::string_view object(body.data() + pos, end - pos);
    TenantRow row;
    row.tenant = static_cast<uint64_t>(JsonField(object, "tenant"));
    row.shard = static_cast<uint64_t>(JsonField(object, "shard"));
    row.window_misses =
        static_cast<uint64_t>(JsonField(object, "window_misses"));
    row.burn = JsonField(object, "burn");
    rows.push_back(row);
    pos = end + 1;
  }
  return rows;
}

std::string ShardSeries(const char* base, size_t shard) {
  char buf[128];
  std::snprintf(buf, sizeof(buf), "rrs_fleet_slo_%s{shard=\"%zu\"}", base,
                shard);
  return buf;
}

void Render(const Frame& now, const Frame& prev,
            const std::vector<TenantRow>& tenants, int top_n) {
  const double seen = now.Get("rrs_fleet_slo_tenants_seen");
  const double finished = now.Get("rrs_fleet_slo_tenants_finished");
  const double rounds = now.Get("rrs_fleet_slo_rounds");
  const double misses = now.Get("rrs_fleet_slo_misses");
  const double out = now.Get("rrs_fleet_slo_tenants_out_of_budget");
  const double worst = now.Get("rrs_fleet_slo_worst_burn");
  const double breached = now.Get("rrs_fleet_slo_windows_breached");

  double rounds_per_s = 0.0;
  if (prev.ok && now.scrape_ns > prev.scrape_ns) {
    rounds_per_s = (rounds - prev.Get("rrs_fleet_slo_rounds")) * 1e9 /
                   static_cast<double>(now.scrape_ns - prev.scrape_ns);
  }

  std::printf(
      "fleet: %.0f tenants seen, %.0f finished | %.0f rounds (%.0f/s) | "
      "%.0f misses | %.0f windows breached | %.0f out of budget | "
      "worst burn %.2f\n\n",
      seen, finished, rounds, rounds_per_s, misses, breached, out, worst);

  std::printf("%6s %14s %12s %10s %10s %8s\n", "shard", "rounds", "misses",
              "breached", "exhausted", "out");
  for (size_t shard = 0;; ++shard) {
    const std::string key = ShardSeries("rounds", shard);
    if (now.series.find(key) == now.series.end()) break;
    std::printf("%6zu %14.0f %12.0f %10.0f %10.0f %8.0f\n", shard,
                now.Get(key), now.Get(ShardSeries("misses", shard)),
                now.Get(ShardSeries("windows_breached", shard)),
                now.Get(ShardSeries("exhausted_events", shard)),
                now.Get(ShardSeries("tenants_out_of_budget", shard)));
  }

  if (!tenants.empty()) {
    std::printf("\nworst-burn tenants:\n%10s %6s %14s %8s\n", "tenant",
                "shard", "window_misses", "burn");
    int shown = 0;
    for (const TenantRow& row : tenants) {
      if (shown++ >= top_n) break;
      std::printf("%10" PRIu64 " %6" PRIu64 " %14" PRIu64 " %8.2f\n",
                  row.tenant, row.shard, row.window_misses, row.burn);
    }
  }
}

// One scrape target in --endpoints mode: "8081" or "10.0.0.2:8081".
struct Endpoint {
  std::string host = "127.0.0.1";
  int port = 0;
};

bool ParseEndpoints(std::string_view list, const std::string& default_host,
                    std::vector<Endpoint>* out) {
  size_t pos = 0;
  while (pos <= list.size()) {
    size_t comma = list.find(',', pos);
    if (comma == std::string_view::npos) comma = list.size();
    const std::string_view item = list.substr(pos, comma - pos);
    pos = comma + 1;
    if (item.empty()) continue;
    Endpoint endpoint;
    endpoint.host = default_host;
    const size_t colon = item.rfind(':');
    std::string port_text;
    if (colon != std::string_view::npos) {
      endpoint.host = std::string(item.substr(0, colon));
      port_text = std::string(item.substr(colon + 1));
    } else {
      port_text = std::string(item);
    }
    endpoint.port = std::atoi(port_text.c_str());
    if (endpoint.port <= 0) return false;
    out->push_back(std::move(endpoint));
  }
  return !out->empty();
}

// Per-worker breakdown across all endpoints, plus summed fleet rates. The
// worker rows read the rrs_worker_dist_worker_* series each worker process
// absorbs at every tick barrier.
void RenderMulti(const std::vector<Endpoint>& endpoints,
                 const std::vector<Frame>& now,
                 const std::vector<Frame>& prev) {
  std::printf("%-22s %8s %14s %12s %10s %9s %9s\n", "endpoint", "ticks",
              "rounds", "rounds/s", "done", "restores", "snaps");
  double fleet_rate = 0.0;
  double fleet_rounds = 0.0;
  for (size_t i = 0; i < endpoints.size(); ++i) {
    char where[64];
    std::snprintf(where, sizeof(where), "%s:%d", endpoints[i].host.c_str(),
                  endpoints[i].port);
    if (!now[i].ok) {
      std::printf("%-22s %8s\n", where, "down");
      continue;
    }
    const double rounds = now[i].Get("rrs_worker_dist_worker_rounds_stepped");
    double rate = 0.0;
    if (i < prev.size() && prev[i].ok && now[i].scrape_ns > prev[i].scrape_ns) {
      rate = (rounds - prev[i].Get("rrs_worker_dist_worker_rounds_stepped")) *
             1e9 / static_cast<double>(now[i].scrape_ns - prev[i].scrape_ns);
    }
    fleet_rate += rate;
    fleet_rounds += rounds;
    std::printf("%-22s %8.0f %14.0f %12.0f %10.0f %9.0f %9.0f\n", where,
                now[i].Get("rrs_worker_dist_worker_ticks"), rounds, rate,
                now[i].Get("rrs_worker_dist_worker_completed"),
                now[i].Get("rrs_worker_dist_worker_restores"),
                now[i].Get("rrs_worker_dist_worker_snapshots"));
  }
  std::printf("%-22s %8s %14.0f %12.0f  (aggregate)\n\n", "fleet", "",
              fleet_rounds, fleet_rate);
}

}  // namespace

int main(int argc, char** argv) {
  std::string host = "127.0.0.1";
  int port = 0;
  int interval_ms = 1000;
  int top_n = 10;
  bool once = false;
  std::string endpoints_arg;

  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--host" && i + 1 < argc) {
      host = argv[++i];
    } else if (arg == "--interval-ms" && i + 1 < argc) {
      interval_ms = std::atoi(argv[++i]);
    } else if (arg == "--top" && i + 1 < argc) {
      top_n = std::atoi(argv[++i]);
    } else if (arg == "--endpoints" && i + 1 < argc) {
      endpoints_arg = argv[++i];
    } else if (arg == "--once") {
      once = true;
    } else if (arg[0] != '-' && port == 0) {
      port = std::atoi(argv[i]);
    } else {
      std::fprintf(stderr,
                   "usage: fleet_top <port> [--host H] [--interval-ms N] "
                   "[--top N] [--once]\n"
                   "       fleet_top --endpoints <p1,p2,host:p3,...> "
                   "[--host H] [--interval-ms N] [--top N] [--once]\n");
      return 2;
    }
  }

  if (!endpoints_arg.empty()) {
    std::vector<Endpoint> endpoints;
    if (!ParseEndpoints(endpoints_arg, host, &endpoints)) {
      std::fprintf(stderr, "fleet_top: bad --endpoints list '%s'\n",
                   endpoints_arg.c_str());
      return 2;
    }
    std::vector<Frame> prev(endpoints.size());
    while (true) {
      std::vector<Frame> now(endpoints.size());
      size_t up = 0;
      for (size_t i = 0; i < endpoints.size(); ++i) {
        now[i] = Scrape(endpoints[i].host, endpoints[i].port);
        if (now[i].ok) ++up;
      }
      if (up == 0) {
        std::fprintf(stderr, "fleet_top: all %zu endpoints down\n",
                     endpoints.size());
        return 1;
      }
      if (!once) std::printf("\x1b[H\x1b[2J");
      RenderMulti(endpoints, now, prev);
      // An endpoint exporting the fleet SLO section is the controller:
      // render the classic totals view for it under the worker table.
      for (size_t i = 0; i < endpoints.size(); ++i) {
        if (now[i].ok &&
            now[i].series.count("rrs_fleet_slo_tenants_seen") > 0) {
          const std::vector<TenantRow> tenants =
              FetchTenants(endpoints[i].host, endpoints[i].port);
          Render(now[i], prev[i], tenants, top_n);
          break;
        }
      }
      std::fflush(stdout);
      if (once) return 0;
      prev = std::move(now);
      std::this_thread::sleep_for(std::chrono::milliseconds(interval_ms));
    }
  }

  if (port <= 0) {
    std::fprintf(stderr, "fleet_top: missing or invalid port\n");
    return 2;
  }

  Frame prev;
  while (true) {
    Frame now = Scrape(host, port);
    if (!now.ok) {
      std::fprintf(stderr, "fleet_top: scrape of %s:%d failed\n", host.c_str(),
                   port);
      return 1;
    }
    const std::vector<TenantRow> tenants = FetchTenants(host, port);
    if (!once) std::printf("\x1b[H\x1b[2J");  // cursor home + clear
    Render(now, prev, tenants, top_n);
    std::fflush(stdout);
    if (once) break;
    prev = now;
    std::this_thread::sleep_for(std::chrono::milliseconds(interval_ms));
  }
  return 0;
}
