// Package core implements the executor engine of GoWren — the Go
// counterpart of the IBM-PyWren client library plus the generic "runner"
// function it executes inside IBM Cloud Functions. It provides:
//
//   - the Executor with the paper's Table 2 API (call_async, map,
//     map_reduce, wait, get_result);
//   - payload staging in object storage and asynchronous invocation, both
//     directly from the client and through the massive-function-spawning
//     mechanism of §5.1 (remote invoker functions firing groups of
//     invocations from inside the cloud);
//   - automatic data discovery and partitioning for map_reduce (§4.3),
//     including the reducer-one-per-object mode;
//   - dynamic function composition (§4.4): functions spawn further
//     functions through a Spawner, and GetResult transparently follows the
//     resulting continuation chains;
//   - futures with Always / AnyCompleted / AllCompleted wait semantics.
package core

import (
	"strconv"
	"strings"
)

// Storage layout inside the meta bucket. Statuses share a per-executor
// prefix so one paginated LIST discovers every finished call — the same
// trick IBM-PyWren uses so client polling does not need a round trip per
// future. Payloads are the one kind not keyed by call ID: a launch stages
// them as batches (payloads.go).
const (
	payloadPrefix = "payload"
	statusPrefix  = "status"
	shufflePrefix = "shuffle"
	fanInPrefix   = "fanin"
)

func jobKey(kind, execID, callID string) string {
	return "jobs/" + execID + "/" + kind + "/" + callID
}

// statusKey is the commit point of a call: its existence means finished.
func statusKey(execID, callID string) string { return jobKey(statusPrefix, execID, callID) }

// statusListPrefix lists every finished call of an executor.
func statusListPrefix(execID string) string {
	return "jobs/" + execID + "/" + statusPrefix + "/"
}

// callIDFromStatusKey recovers the call ID from a listed status key.
func callIDFromStatusKey(key string) (string, bool) {
	i := strings.LastIndex(key, "/")
	if i < 0 || i == len(key)-1 {
		return "", false
	}
	return key[i+1:], true
}

// callIDWidth is the zero-padding width of call IDs (reserveCallIDs). The
// padding makes lexicographic key order equal numeric call order, which is
// what lets the status sweep keep a contiguous done-frontier and resume
// LISTs there; the invariant holds for up to 10^callIDWidth calls per
// executor namespace (beyond that, wider IDs sort after all padded ones
// and the sweep degrades gracefully to re-listing the unpadded tail).
const callIDWidth = 5

// callIDForSeq formats a numeric call sequence as a call ID.
func callIDForSeq(seq int) string {
	var d, b [24]byte
	return string(appendZeroPadded(b[:0], strconv.AppendInt(d[:0], int64(seq), 10), callIDWidth))
}

// appendZeroPadded appends digits, a decimal integer as strconv formats it,
// padded with zeros after its sign to width bytes: what fmt's %0*d prints.
func appendZeroPadded(b, digits []byte, width int) []byte {
	if len(digits) > 0 && digits[0] == '-' {
		b, digits, width = append(b, '-'), digits[1:], width-1
	}
	for i := len(digits); i < width; i++ {
		b = append(b, '0')
	}
	return append(b, digits...)
}

// callSeq parses a call ID back into its numeric sequence. IDs not minted
// by reserveCallIDs (wrong width, a sign or other non-digits) report false.
func callSeq(callID string) (int, bool) {
	if len(callID) != callIDWidth || callID[0] == '+' || callID[0] == '-' {
		return 0, false
	}
	n, err := strconv.Atoi(callID)
	return n, err == nil
}

// fanInKey is the launch marker of the stage barrier whose first target is
// callID: beside the payloads, outside the status prefix the sweeps list.
func fanInKey(execID, callID string) string { return jobKey(fanInPrefix, execID, callID) }

// journalPrefix groups a job's recovery journal records.
const journalPrefix = "journal"

// manifestListPrefix groups every job manifest in the meta bucket, outside
// the per-job namespaces so ListJobs is a single cheap prefix LIST.
const manifestListPrefix = "manifests/"

// manifestKey is where a job's JobManifest, its driver lease, lives. It is
// written only via conditional put, so competing drivers serialize on epochs.
func manifestKey(execID string) string { return manifestListPrefix + execID }

// journalKey names one journal record. Zero-padding epoch and sequence makes
// lexicographic key order equal (epoch, seq) order, so a resuming driver
// replays records exactly as they were written.
func journalKey(execID string, epoch uint64, seq int) string {
	var ed, e, sd, s [24]byte
	return "jobs/" + execID + "/" + journalPrefix + "/" +
		string(appendZeroPadded(e[:0], strconv.AppendUint(ed[:0], epoch, 10), 6)) + "-" +
		string(appendZeroPadded(s[:0], strconv.AppendInt(sd[:0], int64(seq), 10), 6))
}

// journalListPrefix lists a job's journal records in replay order.
func journalListPrefix(execID string) string {
	return "jobs/" + execID + "/" + journalPrefix + "/"
}
