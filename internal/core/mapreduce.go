package core

import (
	"errors"
	"fmt"
	"slices"

	"gowren/internal/wire"
)

// MapReduceOptions tune map_reduce (§4.3).
type MapReduceOptions struct {
	// ChunkBytes is the partition size for storage-backed sources. Zero
	// or negative selects per-object granularity (one map executor per
	// dataset object).
	ChunkBytes int64
	// ReducerOnePerObject runs one reducer per source object key instead
	// of a single global reducer — the paper's reduceByKey-like mode
	// (reducer_one_per_object=True).
	ReducerOnePerObject bool
}

// MapReduce executes a full MapReduce flow (Table 2: map_reduce): a map
// phase over the partitioned dataset and one or more reduce executors, each
// started by the map call that commits the last of its partials (see
// fanin.go) — a reducer runs when its inputs exist and is never billed for
// waiting on them. It returns the reducer futures; map calls run untracked
// so GetResult yields the reduced results.
func (e *Executor) MapReduce(mapFn string, src DataSource, reduceFn string, opts MapReduceOptions) ([]*Future, error) {
	meta := e.cfg.Platform.MetaBucket()

	var (
		mapPayloads []*wire.CallPayload
		groups      []reduceGroup
	)
	switch s := src.(type) {
	case InlineValues:
		if len(s) == 0 {
			return nil, errors.New("core: map_reduce over empty input")
		}
		if opts.ReducerOnePerObject {
			return nil, errors.New("core: reducer-per-object requires a storage-backed source")
		}
		callIDs := e.reserveCallIDs(len(s))
		mapPayloads = make([]*wire.CallPayload, len(s))
		for i, v := range s {
			raw, err := wire.Marshal(v)
			if err != nil {
				return nil, fmt.Errorf("core: serialize map_reduce argument %d: %w", i, err)
			}
			mapPayloads[i] = &wire.CallPayload{
				ExecutorID: e.id,
				CallID:     callIDs[i],
				Runtime:    e.cfg.RuntimeImage,
				Function:   mapFn,
				Kind:       wire.KindPlain,
				Arg:        raw,
				MetaBucket: meta,
			}
		}
		groups = []reduceGroup{{key: "", n: len(s)}}
	default:
		parts, err := PlanPartitions(e.cfg.Storage, src, opts.ChunkBytes)
		if err != nil {
			return nil, err
		}
		if len(parts) == 0 {
			return nil, errors.New("core: partitioner produced no work")
		}
		parts, groups = groupForReduce(parts, opts.ReducerOnePerObject)
		callIDs := e.reserveCallIDs(len(parts))
		mapPayloads = make([]*wire.CallPayload, len(parts))
		for i := range parts {
			part := parts[i]
			mapPayloads[i] = &wire.CallPayload{
				ExecutorID: e.id,
				CallID:     callIDs[i],
				Runtime:    e.cfg.RuntimeImage,
				Function:   mapFn,
				Kind:       wire.KindMapPartition,
				Partition:  &part,
				MetaBucket: meta,
			}
		}
	}

	// One stage barrier per group: the reducers are staged, the maps launched
	// untracked with their group's barrier on board, and each group's last
	// map to commit starts its reducer.
	reduceIDs := e.reserveCallIDs(len(groups))
	gates := make([]stageGate, len(groups))
	rest := mapPayloads
	for g, grp := range groups {
		inputs := rest[:grp.n]
		rest = rest[grp.n:]
		callIDs := make([]string, grp.n)
		for i, p := range inputs {
			callIDs[i] = p.CallID
		}
		gates[g] = stageGate{inputs: inputs, targets: []*wire.CallPayload{{
			ExecutorID: e.id,
			CallID:     reduceIDs[g],
			Runtime:    e.cfg.RuntimeImage,
			Function:   reduceFn,
			Kind:       wire.KindReduce,
			Reduce: &wire.ReduceSpec{
				MetaBucket: meta,
				ExecutorID: e.id,
				MapCallIDs: callIDs,
				GroupKey:   grp.key,
			},
			MetaBucket: meta,
		}}}
	}
	futures, err := e.launchBehind(gates, true, true)
	if err != nil {
		return nil, fmt.Errorf("core: map_reduce: %w", err)
	}
	return futures, nil
}

// reduceGroup is one reducer's share of the map phase: n consecutive map
// calls.
type reduceGroup struct {
	key string
	n   int
}

// groupForReduce assigns partitions to reducers — all-to-one by default, or
// one group per source object key in reducer-per-object mode — and returns
// them ordered group by group, so that every group's map calls get a
// contiguous call-ID range (what a fan-in barrier lists). Groups appear in
// order of their first partition and partition order within a group is
// preserved; discovery already emits an object's chunks together, so the
// reordering only moves anything when a key is named twice.
func groupForReduce(parts []wire.Partition, perObject bool) ([]wire.Partition, []reduceGroup) {
	if !perObject {
		return parts, []reduceGroup{{key: "", n: len(parts)}}
	}
	index := make(map[string]int)
	var (
		groups  []reduceGroup
		members [][]wire.Partition
	)
	for _, part := range parts {
		key := part.Bucket + "/" + part.Key
		gi, ok := index[key]
		if !ok {
			gi = len(groups)
			index[key] = gi
			groups = append(groups, reduceGroup{key: key})
			members = append(members, nil)
		}
		groups[gi].n++
		members[gi] = append(members[gi], part)
	}
	return slices.Concat(members...), groups
}
