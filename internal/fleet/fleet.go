// Package fleet turns the campaign engine into a distributed service:
// an HTTP/JSON coordinator that accepts campaign specs, splits them
// into shard leases, hands the leases to worker processes, and merges
// the returned shard fragments into the standard campaign checkpoint
// format.
//
// # Why work-stealing is safe
//
// Every shard's RNG stream is derived by FNV-1a over (campaign label,
// campaign seed, shard index) — never from a worker identity, a node
// name, or scheduling order (campaign.ShardSeed). A shard therefore
// computes the same bytes no matter which worker runs it, how many
// times a lease expires and is re-issued, or whether two workers race
// to finish the same shard. The coordinator exploits this freely: an
// expired lease is simply re-issued, and a duplicate completion is
// dropped by shard index with no correctness concern — first-wins and
// last-wins are byte-identical.
//
// # Wire format
//
// A job is declarative: scheme specs in the internal/schemes grammar
// (name[@org][:key=val,...]) crossed with fault-scenario specs in the
// internal/faults grammar (name[:key=val,...] | compose(...)). Each
// (scheme, scenario) pair expands to one campaign — identical in label,
// seed derivation and shard kernel to the campaign pairsim's f13
// experiment runs locally (reliability.ScenarioCampaignSpec /
// ScenarioShardFn) — so a fleet's merged checkpoint directory and its
// folded aggregates are byte-identical to a single-process run, and
// `pairsim -resume` picks up a fleet run transparently.
package fleet

import (
	"encoding/json"
	"time"
)

// Failpoint names the fleet evaluates, exported so chaos tests can arm
// them by name. Disarmed they are zero-cost no-ops.
const (
	// FailpointWorkerLease is hit by a worker immediately after it is
	// granted a lease, before any renewal or computation. An error
	// action makes the worker abandon the lease silently — from the
	// coordinator's view the worker died mid-shard, exercising lease
	// expiry and re-issue; a panic action models the same crash
	// non-gracefully.
	FailpointWorkerLease = "fleet/worker/lease"

	// FailpointCoordRequest is hit at the top of every coordinator
	// HTTP handler: an error action answers 500 (a transient server
	// fault the client retry layer must absorb), a delay action models
	// a slow coordinator for client-timeout tests.
	FailpointCoordRequest = "fleet/coord/request"

	// FailpointCoordDrop is hit right after FailpointCoordRequest: an
	// error action aborts the connection without writing any response,
	// modeling a request dropped on the wire.
	FailpointCoordDrop = "fleet/coord/drop"

	// FailpointClientRequest is hit before every client HTTP round
	// trip: an error action stands in for a network failure (the
	// request never reaches the coordinator), a delay action models a
	// congested path.
	FailpointClientRequest = "fleet/client/request"
)

// JobSpec is the submission wire format: the campaign matrix to run.
// Scheme and scenario specs are shipped as strings and rebuilt against
// the registries on the coordinator (validation) and on every worker
// (execution), so the spec grammars are the only contract between
// nodes.
type JobSpec struct {
	// Namespace prefixes every campaign label (pairsim submits its
	// experiment id, e.g. "f13", so fleet checkpoints land exactly where
	// a local `pairsim -exp f13 -checkpoint` run would put them).
	Namespace string `json:"namespace,omitempty"`
	// Schemes are scheme specs in the internal/schemes grammar.
	Schemes []string `json:"schemes"`
	// Scenarios are fault-scenario specs in the internal/faults grammar.
	Scenarios []string `json:"scenarios"`
	// Trials is the Monte-Carlo trial count per campaign.
	Trials int `json:"trials"`
	// ShardSize is trials per shard; 0 means campaign.DefaultShardSize.
	ShardSize int `json:"shard_size,omitempty"`
	// Seed is the campaign seed every shard stream derives from.
	Seed int64 `json:"seed"`
}

// Lease is one unit of granted work: a single shard of one campaign,
// with everything a worker needs to recompute it deterministically and
// a deadline by which the worker must complete or renew.
type Lease struct {
	// ID names this grant; completions and renewals quote it. Re-issues
	// of the same shard get fresh IDs.
	ID string `json:"id"`
	// Job is the job the shard belongs to.
	Job string `json:"job"`
	// Label is the full (namespaced) campaign label — the seed salt.
	Label string `json:"label"`
	// Scheme and Scenario rebuild the shard kernel on the worker.
	Scheme   string `json:"scheme"`
	Scenario string `json:"scenario"`
	// Shard is the shard index within the campaign.
	Shard int `json:"shard"`
	// Trials, ShardSize and Seed reconstruct the campaign.Spec (Trials
	// is the campaign total; the shard's own count follows from the
	// spec's shard math).
	Trials    int   `json:"trials"`
	ShardSize int   `json:"shard_size"`
	Seed      int64 `json:"seed"`
	// Deadline is when the lease expires unless renewed; TTL is the
	// renewal interval the coordinator grants (workers renew at TTL/3).
	Deadline time.Time     `json:"deadline"`
	TTL      time.Duration `json:"ttl"`
}

// CompleteRequest reports the outcome of a leased shard: exactly one of
// Fragment (the shard result as raw JSON, byte-identical to what a
// local campaign would checkpoint) or Error (a permanent shard failure
// after the worker's own retry budget).
type CompleteRequest struct {
	Worker   string          `json:"worker"`
	Fragment json.RawMessage `json:"fragment,omitempty"`
	Error    string          `json:"error,omitempty"`
}

// CompleteResponse acknowledges a completion.
type CompleteResponse struct {
	// Duplicate marks a completion for a shard that was already merged
	// (a re-issued lease whose original worker also finished); the
	// fragment was discarded.
	Duplicate bool `json:"duplicate,omitempty"`
	// Cancelled marks a completion for a cancelled job.
	Cancelled bool `json:"cancelled,omitempty"`
}

// CampaignStatus is the live state of one campaign of a job.
type CampaignStatus struct {
	Label    string `json:"label"`
	Scheme   string `json:"scheme"`
	Scenario string `json:"scenario"`
	Done     int    `json:"done"`
	Failed   int    `json:"failed"`
	Total    int    `json:"total"`
}

// JobStatus is the status wire format.
type JobStatus struct {
	ID            string           `json:"id"`
	State         string           `json:"state"` // running | done | failed | cancelled
	Error         string           `json:"error,omitempty"`
	Spec          JobSpec          `json:"spec"`
	ShardsDone    int              `json:"shards_done"`
	ShardsFailed  int              `json:"shards_failed"`
	ShardsTotal   int              `json:"shards_total"`
	Reissued      int              `json:"reissued"` // expired leases re-issued by this coordinator incarnation
	Progress      string           `json:"progress"` // one-line snapshot, campaign.Snapshot format
	Campaigns     []CampaignStatus `json:"campaigns"`
	ReportSummary string           `json:"report_summary,omitempty"`
}

// CampaignResult is one campaign's merged outcome.
type CampaignResult struct {
	Label    string `json:"label"`
	Scheme   string `json:"scheme"`
	Scenario string `json:"scenario"`
	Trials   int    `json:"trials"`
	// Counts are the outcome tallies folded from the shard fragments in
	// ascending shard order (OK/CE/DUE/SDC, indexed by ecc.Outcome*).
	Counts [4]int64 `json:"counts"`
	// FailedShards lists shards lost to permanent failures (empty on a
	// clean run; Counts is then partial).
	FailedShards []int `json:"failed_shards,omitempty"`
}

// JobResult is the final result wire format.
type JobResult struct {
	ID            string           `json:"id"`
	State         string           `json:"state"`
	Error         string           `json:"error,omitempty"`
	Campaigns     []CampaignResult `json:"campaigns"`
	ReportSummary string           `json:"report_summary,omitempty"`
}

// Event is one SSE payload. Name is the SSE event field ("progress",
// "shard", "warning", "done"); Data is the JSON data field. ID, when
// nonzero, is the SSE id field: a per-job sequence scoped under the
// coordinator's epoch (epoch<<32 | seq), strictly increasing
// across coordinator restarts, so a reconnecting watcher can drop
// events it has already delivered (Client.Watch does exactly that;
// "done" events are always delivered regardless).
type Event struct {
	Name string
	Data json.RawMessage
	ID   uint64
}
