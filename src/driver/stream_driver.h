// StreamDriver: the unsharded name for the one streaming driver.
//
// There is a single driver, ShardedDriver (src/shard/sharded_driver.h),
// configured by DriverConfig; the unsharded pipeline is its `shards = 1`
// shape, which DriverConfig defaults to. This alias keeps the
// StreamDriver<Engine> / StreamDriver<Engine>::Options spelling valid.
#ifndef SRC_DRIVER_STREAM_DRIVER_H_
#define SRC_DRIVER_STREAM_DRIVER_H_

#include "src/core/streaming_engine.h"
#include "src/shard/sharded_driver.h"

namespace graphbolt {

template <StreamingEngine E>
using StreamDriver = ShardedDriver<E>;

}  // namespace graphbolt

#endif  // SRC_DRIVER_STREAM_DRIVER_H_
