#include "hpcsim/staging.h"

#include <algorithm>
#include <memory>

#include "util/error.h"
#include "util/stats.h"

namespace primacy::hpcsim {
namespace {

struct IoGroup {
  FifoServer network;
  FifoServer disk_write;
  FifoServer disk_read;
};

std::vector<std::unique_ptr<IoGroup>> BuildGroups(const ClusterConfig& cfg) {
  if (cfg.compute_nodes == 0 || cfg.compute_per_io == 0) {
    throw InvalidArgumentError("staging: node counts must be positive");
  }
  const std::size_t groups =
      (cfg.compute_nodes + cfg.compute_per_io - 1) / cfg.compute_per_io;
  std::vector<std::unique_ptr<IoGroup>> out;
  out.reserve(groups);
  for (std::size_t g = 0; g < groups; ++g) {
    out.push_back(std::make_unique<IoGroup>(IoGroup{
        FifoServer("network/" + std::to_string(g), cfg.network_bps),
        FifoServer("disk-w/" + std::to_string(g), cfg.disk_write_bps),
        FifoServer("disk-r/" + std::to_string(g), cfg.disk_read_bps)}));
  }
  return out;
}

StagingResult Finalize(std::span<const CompressionProfile> profiles,
                       std::vector<std::unique_ptr<IoGroup>>& groups,
                       std::vector<NodeTrace> nodes, SimTime total,
                       std::size_t events, bool write_path) {
  StagingResult result;
  result.total_seconds = total;
  result.nodes = std::move(nodes);
  result.events_processed = events;
  double raw_bytes = 0.0;
  for (const CompressionProfile& profile : profiles) {
    raw_bytes +=
        profile.input_bytes * static_cast<double>(profile.chunks_per_node);
  }
  result.aggregate_throughput_bps = total > 0.0 ? raw_bytes / total : 0.0;
  std::vector<double> net_util, disk_util;
  net_util.reserve(groups.size());
  disk_util.reserve(groups.size());
  for (const auto& group : groups) {
    net_util.push_back(group->network.Utilization(total));
    disk_util.push_back(write_path ? group->disk_write.Utilization(total)
                                   : group->disk_read.Utilization(total));
  }
  result.network_utilization = Mean(net_util);
  result.disk_utilization = Mean(disk_util);
  return result;
}

}  // namespace

CompressionProfile CompressionProfile::Null(double chunk_bytes) {
  CompressionProfile profile;
  profile.input_bytes = chunk_bytes;
  profile.output_bytes = chunk_bytes;
  return profile;
}

StagingResult SimulateWrite(const ClusterConfig& config,
                            const CompressionProfile& profile) {
  const std::vector<CompressionProfile> profiles(config.compute_nodes,
                                                 profile);
  return SimulateWrite(config, profiles);
}

StagingResult SimulateWrite(const ClusterConfig& config,
                            std::span<const CompressionProfile> profiles) {
  auto groups = BuildGroups(config);
  EventQueue queue;
  std::vector<NodeTrace> nodes(config.compute_nodes);

  if (profiles.size() != config.compute_nodes) {
    throw InvalidArgumentError("staging: one profile per compute node");
  }
  for (std::size_t node = 0; node < config.compute_nodes; ++node) {
    const CompressionProfile& profile = profiles[node];
    if (profile.chunks_per_node == 0) {
      throw InvalidArgumentError("staging: chunks_per_node must be positive");
    }
    IoGroup& group = *groups[node / config.compute_per_io];
    NodeTrace& trace = nodes[node];
    const double cpu_per_chunk =
        profile.precondition_seconds + profile.compress_seconds;
    for (std::size_t chunk = 0; chunk < profile.chunks_per_node; ++chunk) {
      // Stage 1: the node's CPU compresses its chunks back to back, so chunk
      // k's compression overlaps chunk k-1's transfer and disk write.
      const SimTime local_done =
          cpu_per_chunk * static_cast<double>(chunk + 1);
      queue.Schedule(local_done, [&queue, &group, &trace, &profile] {
        trace.local_done = std::max(trace.local_done, queue.Now());
        // Stage 2: ship the (possibly reduced) payload over the shared link.
        const SimTime transfer_done =
            group.network.Submit(queue.Now(), profile.output_bytes);
        queue.Schedule(transfer_done, [&queue, &group, &trace, &profile] {
          trace.transfer_done = std::max(trace.transfer_done, queue.Now());
          // Stage 3: the I/O node drains it to disk.
          const SimTime write_done =
              group.disk_write.Submit(queue.Now(), profile.output_bytes);
          queue.Schedule(write_done, [&queue, &trace] {
            trace.io_done = std::max(trace.io_done, queue.Now());
            trace.finished = trace.io_done;
          });
        });
      });
    }
  }
  const SimTime total = queue.Run();
  return Finalize(profiles, groups, std::move(nodes), total,
                  queue.ProcessedEvents(), /*write_path=*/true);
}

StagingResult SimulateRead(const ClusterConfig& config,
                           const CompressionProfile& profile) {
  const std::vector<CompressionProfile> profiles(config.compute_nodes,
                                                 profile);
  return SimulateRead(config, profiles);
}

StagingResult SimulateRead(const ClusterConfig& config,
                           std::span<const CompressionProfile> profiles) {
  auto groups = BuildGroups(config);
  EventQueue queue;
  std::vector<NodeTrace> nodes(config.compute_nodes);

  if (profiles.size() != config.compute_nodes) {
    throw InvalidArgumentError("staging: one profile per compute node");
  }
  // Per-node CPU availability for the serialized decompression stage; chunk
  // k+1's disk read and transfer overlap chunk k's decompression.
  std::vector<SimTime> cpu_free(config.compute_nodes, 0.0);
  for (std::size_t node = 0; node < config.compute_nodes; ++node) {
    const CompressionProfile& profile = profiles[node];
    if (profile.chunks_per_node == 0) {
      throw InvalidArgumentError("staging: chunks_per_node must be positive");
    }
    IoGroup& group = *groups[node / config.compute_per_io];
    NodeTrace& trace = nodes[node];
    for (std::size_t chunk = 0; chunk < profile.chunks_per_node; ++chunk) {
      // Stage 1: the I/O node reads this node's payload from disk.
      const SimTime read_done =
          group.disk_read.Submit(0.0, profile.output_bytes);
      queue.Schedule(read_done, [&queue, &group, &trace, &profile, &cpu_free,
                                 node] {
        trace.io_done = std::max(trace.io_done, queue.Now());
        // Stage 2: payload crosses the shared link to the compute node.
        const SimTime transfer_done =
            group.network.Submit(queue.Now(), profile.output_bytes);
        queue.Schedule(transfer_done, [&queue, &trace, &profile, &cpu_free,
                                       node] {
          trace.transfer_done = std::max(trace.transfer_done, queue.Now());
          // Stage 3: decompress + inverse precondition on the node's CPU.
          const SimTime start = std::max(cpu_free[node], queue.Now());
          const SimTime finished = start + profile.decompress_seconds +
                                   profile.postcondition_seconds;
          cpu_free[node] = finished;
          queue.Schedule(finished, [&queue, &trace] {
            trace.local_done = std::max(trace.local_done, queue.Now());
            trace.finished = trace.local_done;
          });
        });
      });
    }
  }
  const SimTime total = queue.Run();
  return Finalize(profiles, groups, std::move(nodes), total,
                  queue.ProcessedEvents(), /*write_path=*/false);
}

StagingResult SimulateWriteAtIoNode(const ClusterConfig& config,
                                    const CompressionProfile& profile) {
  auto groups = BuildGroups(config);
  EventQueue queue;
  std::vector<NodeTrace> nodes(config.compute_nodes);
  if (profile.chunks_per_node == 0) {
    throw InvalidArgumentError("staging: chunks_per_node must be positive");
  }
  // One CPU timeline per I/O node: compression of all rho * chunks_per_node
  // chunks of its group is serialized there.
  std::vector<SimTime> io_cpu_free(groups.size(), 0.0);

  for (std::size_t node = 0; node < config.compute_nodes; ++node) {
    const std::size_t group_index = node / config.compute_per_io;
    IoGroup& group = *groups[group_index];
    NodeTrace& trace = nodes[node];
    for (std::size_t chunk = 0; chunk < profile.chunks_per_node; ++chunk) {
      // Stage 1: the RAW chunk crosses the shared link (no reduction yet).
      const SimTime transfer_done =
          group.network.Submit(0.0, profile.input_bytes);
      queue.Schedule(transfer_done, [&queue, &group, &trace, &profile,
                                     &io_cpu_free, group_index] {
        trace.transfer_done = std::max(trace.transfer_done, queue.Now());
        // Stage 2: the I/O node's CPU compresses group chunks one by one.
        const SimTime start = std::max(io_cpu_free[group_index], queue.Now());
        const SimTime compressed = start + profile.precondition_seconds +
                                   profile.compress_seconds;
        io_cpu_free[group_index] = compressed;
        queue.Schedule(compressed, [&queue, &group, &trace, &profile] {
          trace.local_done = std::max(trace.local_done, queue.Now());
          // Stage 3: the reduced payload goes to disk.
          const SimTime write_done =
              group.disk_write.Submit(queue.Now(), profile.output_bytes);
          queue.Schedule(write_done, [&queue, &trace] {
            trace.io_done = std::max(trace.io_done, queue.Now());
            trace.finished = trace.io_done;
          });
        });
      });
    }
  }
  const SimTime total = queue.Run();
  const std::vector<CompressionProfile> profiles(config.compute_nodes,
                                                 profile);
  return Finalize(profiles, groups, std::move(nodes), total,
                  queue.ProcessedEvents(), /*write_path=*/true);
}

}  // namespace primacy::hpcsim
