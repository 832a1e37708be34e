package core

import (
	"fmt"

	"gowren/internal/cos"
	"gowren/internal/wire"
)

// approxInvokeBytes is the request-body size charged per invocation call:
// the runner only receives an object reference, not the payload itself.
const approxInvokeBytes = 256

// invokeDirect stages the payloads and fires one invocation per payload as
// action from this executor's location, using the client thread pool —
// PyWren's original strategy and the "local invocation" arm of Fig. 2. It
// returns the calls' futures, untracked, in payload order.
func (e *Executor) invokeDirect(action string, payloads []*wire.CallPayload) ([]*Future, error) {
	refs, err := e.stagePayloads(payloads)
	if err != nil {
		return nil, err
	}
	futures := make([]*Future, len(payloads))
	errs := parallelFor(e.clock, e.cfg.InvokeConcurrency, len(payloads), func(i int) error {
		p := payloads[i]
		id, err := e.invokeOne(action, refs[i], p.Tenant)
		if err != nil {
			return fmt.Errorf("invoke call %s/%s: %w", p.ExecutorID, p.CallID, err)
		}
		futures[i] = newFuture(e, p.ExecutorID, p.CallID, id)
		futures[i].payload = refs[i]
		return nil
	})
	if err := firstErr(errs); err != nil {
		return nil, fmt.Errorf("core: direct invocation: %w", err)
	}
	return futures, nil
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
