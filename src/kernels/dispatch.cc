// Runtime ISA dispatch: pick the best kernel table the CPU supports, once,
// and export the selection as the telemetry gauge
// primacy_kernel_isa{isa="..."}.
#include "kernels/kernels.h"

#include <atomic>
#include <string>

#include "kernels/tables.h"
#include "telemetry/metrics.h"

namespace primacy::kernels {
namespace {

struct Selection {
  const KernelTable* table;
  Isa isa;
};

#if PRIMACY_SIMD_ENABLED
/// CPUID probe, callable even from static initializers (where libgcc's own
/// feature-table constructor may not have run yet).
bool CpuHasAvx2() {
  __builtin_cpu_init();
  return __builtin_cpu_supports("avx2") != 0;
}
#endif

void PublishIsaGauge(Isa active) {
  auto& registry = telemetry::MetricsRegistry::Global();
  for (Isa isa : kAllIsas) {
    std::string labels = std::string("isa=\"") + IsaName(isa) + "\"";
    registry.GetGauge("primacy_kernel_isa", labels).Set(isa == active ? 1 : 0);
  }
}

Selection Resolve() {
  const Isa isa = TableFor(Isa::kAvx2) != nullptr ? Isa::kAvx2 : Isa::kScalar;
  PublishIsaGauge(isa);
  return Selection{TableFor(isa), isa};
}

std::atomic<const Selection*> g_active{nullptr};

const Selection& ActiveSelection() {
  const Selection* sel = g_active.load(std::memory_order_acquire);
  if (sel == nullptr) {
    static const Selection resolved = Resolve();
    g_active.store(&resolved, std::memory_order_release);
    sel = &resolved;
  }
  return *sel;
}

}  // namespace

const char* IsaName(Isa isa) { return isa == Isa::kAvx2 ? "avx2" : "scalar"; }

const KernelTable* TableFor(Isa isa) {
  switch (isa) {
    case Isa::kScalar:
      return &ScalarTable();
    case Isa::kAvx2:
#if PRIMACY_SIMD_ENABLED
      return CpuHasAvx2() ? detail::Avx2Table() : nullptr;
#else
      break;
#endif
  }
  return nullptr;
}

const KernelTable& Active() { return *ActiveSelection().table; }

Isa ActiveIsa() { return ActiveSelection().isa; }

bool ForceIsa(Isa isa) {
  const KernelTable* table = TableFor(isa);
  if (table == nullptr) return false;
  ActiveSelection();  // make sure first-use resolution has happened
  static Selection forced;
  forced = Selection{table, isa};
  g_active.store(&forced, std::memory_order_release);
  PublishIsaGauge(isa);
  return true;
}

}  // namespace primacy::kernels
