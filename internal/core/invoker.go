package core

import (
	"fmt"

	"gowren/internal/cos"
	"gowren/internal/wire"
)

// invokeDirect stages the payloads and invokes them (invokeStaged).
func (e *Executor) invokeDirect(action string, payloads []*wire.CallPayload) ([]*Future, error) {
	refs, lines, err := e.stagePayloads(payloads)
	if err != nil {
		return nil, err
	}
	return e.invokeStaged(action, payloads, refs, lines)
}

// invokeStaged fires one invocation per payload as action from this
// executor's location, using the client thread pool — PyWren's original
// strategy and the "local invocation" arm of Fig. 2. Each invocation carries
// its call's ref, and its staged line when that is small enough. It returns
// the calls' futures, untracked, in payload order.
func (e *Executor) invokeStaged(action string, payloads []*wire.CallPayload, refs []wire.ObjectRef, lines [][]byte) ([]*Future, error) {
	futures := make([]*Future, len(payloads))
	errs := parallelFor(e.clock, e.cfg.InvokeConcurrency, len(payloads), func(i int) error {
		p := payloads[i]
		id, err := e.invokeOne(action, invokeParams(refs[i], lines[i]), p.Tenant)
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

// invokeOne performs a single invocation with params as tenant under the
// executor's invocation policy: throttles and lost requests back off with
// decorrelated jitter, up to invokeRetryPolicy's retries. Each attempt pays
// the serialized client overhead and one control-link request carrying
// params.
func (e *Executor) invokeOne(action string, params []byte, tenant string) (string, error) {
	var id string
	err := e.invokeRetry.Do(func() error {
		e.gil.Acquire(e.cfg.ClientOverhead)
		if e.cfg.ControlLink != nil {
			d, failed := e.cfg.ControlLink.RequestCost(int64(len(params)))
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
