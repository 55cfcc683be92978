// Device topology as a tiny dependency-free JSON document:
//   {"name": "fuzzdev", "qubits": 4, "swap_duration": 1,
//    "edges": [[0,1],[1,2],[2,3]]}
// One schema shared by the fuzz corpus (repro cases on disk), the serve
// layer (manifests referencing explicit devices), and anything else that
// needs a device to survive a process boundary. The SWAP duration rides
// along because an instance is not reproducible without it.
#pragma once

#include <string>
#include <string_view>

#include "device/device.h"

namespace olsq2::device {

/// Serialize a device (+ the instance's SWAP duration) as JSON.
std::string device_to_json(const Device& device, int swap_duration);

struct DeviceSpec {
  Device device;
  int swap_duration = 1;
};

/// Largest "qubits" value device_from_json accepts. A Device holds one
/// adjacency bit row per qubit (n^2 / 8 bytes, 2 MiB at the cap), and no
/// processor this project targets comes near it.
inline constexpr int kMaxDeviceQubits = 4096;

/// Parse the JSON produced by device_to_json. Throws std::runtime_error on
/// malformed input, including a "qubits" value above kMaxDeviceQubits and a
/// coupler listed twice (in either orientation).
DeviceSpec device_from_json(std::string_view json);

}  // namespace olsq2::device
