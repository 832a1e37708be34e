package core

import (
	"fmt"

	"gowren/internal/cos"
	"gowren/internal/wire"
)

// approxInvokeBytes is the request-body size charged per invocation call:
// the runner only receives an object reference, not the payload itself.
const approxInvokeBytes = 256

// invokeDirect fires one invocation per payload from this executor's
// location, using the client thread pool — PyWren's original strategy and
// the "local invocation" arm of Fig. 2. It returns the activation IDs in
// payload order.
func (e *Executor) invokeDirect(action string, payloads []*wire.CallPayload, refs []wire.ObjectRef) ([]string, error) {
	actIDs := make([]string, len(payloads))
	errs := parallelFor(e.clock, e.cfg.InvokeConcurrency, len(payloads), func(i int) error {
		p := payloads[i]
		id, err := e.invokeOne(action, refs[i], p.Tenant)
		if err != nil {
			return fmt.Errorf("invoke call %s/%s: %w", p.ExecutorID, p.CallID, err)
		}
		actIDs[i] = id
		return nil
	})
	if err := firstErr(errs); err != nil {
		return nil, fmt.Errorf("core: direct invocation: %w", err)
	}
	return actIDs, nil
}

// invokeOne performs a single invocation as tenant under the executor's
// invocation policy: throttles and lost requests back off with decorrelated
// jitter, up to invokeRetryPolicy's retries. Each attempt pays the serialized client
// overhead and one control-link round trip.
func (e *Executor) invokeOne(action string, ref wire.ObjectRef, tenant string) (string, error) {
	params := wire.MustMarshal(ref)
	var id string
	err := e.invokeRetry.Do(func() error {
		e.gil.Acquire(e.cfg.ClientOverhead)
		if e.cfg.ControlLink != nil {
			d, failed := e.cfg.ControlLink.RequestCost(approxInvokeBytes)
			e.clock.Sleep(d)
			if failed {
				return fmt.Errorf("core: invocation request lost: %w", cos.ErrRequestFailed)
			}
		}
		got, err := e.cfg.Platform.Controller().InvokeTenant(tenant, action, params)
		if err != nil {
			return err
		}
		id = got
		return nil
	})
	if err != nil {
		return "", fmt.Errorf("core: invocation failed: %w", err)
	}
	return id, nil
}

// invokeViaSpawners implements massive function spawning (§5.1): payload
// references are grouped (100 per group by default) and each group is
// handed to a remote invoker function that fires the invocations from
// inside the cloud at datacenter latency. The client pays only
// ceil(n/group) WAN invocations and one PUT for all the invoker payloads
// (refs are the targets' staged locations, aligned with payloads). Activation
// IDs of the target calls are not known client-side in this mode.
func (e *Executor) invokeViaSpawners(action string, payloads []*wire.CallPayload, refs []wire.ObjectRef) ([]string, error) {
	group := e.cfg.SpawnGroupSize
	meta := e.cfg.Platform.MetaBucket()
	invokerAction := invokerActionName(e.cfg.RuntimeImage)

	var groups [][]wire.SpawnTarget
	for start := 0; start < len(payloads); start += group {
		end := start + group
		if end > len(payloads) {
			end = len(payloads)
		}
		targets := make([]wire.SpawnTarget, 0, end-start)
		for i, p := range payloads[start:end] {
			targets = append(targets, wire.SpawnTarget{
				Action:  action,
				Payload: refs[start+i],
				Tenant:  p.Tenant,
			})
		}
		groups = append(groups, targets)
	}

	// Stage one invoker payload per group under this executor's namespace.
	invCallIDs := e.reserveCallIDs(len(groups))
	invPayloads := make([]*wire.CallPayload, len(groups))
	for g, targets := range groups {
		invPayloads[g] = &wire.CallPayload{
			ExecutorID: e.id,
			CallID:     invCallIDs[g],
			Runtime:    e.cfg.RuntimeImage,
			Function:   "gowren/spawn", // resolved by the invoker handler, not an image function
			Kind:       wire.KindInvoker,
			Invoker:    &wire.InvokerSpec{Targets: targets},
			MetaBucket: meta,
		}
	}
	invRefs, err := e.stagePayloads(invPayloads)
	if err != nil {
		return nil, fmt.Errorf("core: stage invoker groups: %w", err)
	}

	errs := parallelFor(e.clock, e.cfg.InvokeConcurrency, len(invPayloads), func(g int) error {
		if _, err := e.invokeOne(invokerAction, invRefs[g], invPayloads[g].Tenant); err != nil {
			return fmt.Errorf("invoke spawner group %d: %w", g, err)
		}
		return nil
	})
	if err := firstErr(errs); err != nil {
		return nil, fmt.Errorf("core: massive spawning: %w", err)
	}
	return nil, nil
}
