package daemon

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"

	"chow88/internal/classify"
	"chow88/internal/core"
	"chow88/internal/mach"
	"chow88/internal/sim"
)

// Request is the JSON body of every POST endpoint. The zero value of each
// optional field selects the server default, so the minimal request is
// just {"source": "..."}.
type Request struct {
	// Source is the CW program text. Required.
	Source string `json:"source"`
	// Client keys per-client incremental state on /compile-incremental
	// (required there, ignored elsewhere). Clients that reuse the key
	// across requests get frontier-only recompiles.
	Client string `json:"client,omitempty"`
	// Opt selects the optimization level: "O2" or "O3" (IPRA). Default O3.
	Opt string `json:"opt,omitempty"`
	// ShrinkWrap toggles shrink-wrapped save/restore placement; omitted
	// means on (the paper's mode C is the daemon default).
	ShrinkWrap *bool `json:"shrinkwrap,omitempty"`
	// Regs restricts the register configuration: "" (full), "caller7" or
	// "callee7" (the Table 2 restrictions).
	Regs string `json:"regs,omitempty"`
	// Open forces the named procedures to the open convention.
	Open []string `json:"open,omitempty"`
	// Strict makes any graceful-degradation repair a hard error.
	Strict bool `json:"strict,omitempty"`
	// Engine pins a simulator engine on /run: "fast" (the default) or
	// "reference".
	Engine string `json:"engine,omitempty"`
	// TimeoutMS bounds the request's compile+run wall clock; 0 selects the
	// server default, and values above the server maximum are clamped.
	TimeoutMS int `json:"timeout_ms,omitempty"`
	// MaxInstrs bounds simulated instructions on /run; 0 means the
	// simulator default.
	MaxInstrs int64 `json:"max_instrs,omitempty"`
	// Disasm includes the disassembly in compile responses.
	Disasm bool `json:"disasm,omitempty"`
}

// ReqError is a request rejected before any compile work started: the
// HTTP status to answer with, a stable machine-readable class, and a
// human-readable detail line.
type ReqError struct {
	Status int
	Class  string
	Detail string
}

func (e *ReqError) Error() string {
	return fmt.Sprintf("%s: %s (http %d)", e.Class, e.Detail, e.Status)
}

// Limits bound what DecodeRequest accepts. The zero value means
// unbounded, for tests and fuzzing; the server always sets both.
type Limits struct {
	// MaxBodyBytes is enforced by the HTTP layer (http.MaxBytesReader);
	// DecodeRequest only translates the overrun error it produces.
	MaxBodyBytes int64
	// MaxSourceLines bounds the decoded program's line count, so a small
	// body of pathological density can't buy unbounded parse work.
	MaxSourceLines int
}

// DecodeRequest reads one JSON request from r, rejecting unknown fields,
// trailing garbage, oversized sources and malformed values with typed
// errors. It never panics on any input (FuzzDaemonRequest proves this),
// which is what lets the daemon run the decoder on the request goroutine
// before admission control spends a worker on the unit.
func DecodeRequest(r io.Reader, lim Limits) (*Request, *ReqError) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var req Request
	if err := dec.Decode(&req); err != nil {
		return nil, decodeError(err)
	}
	// A second value in the stream is a smuggled request, not padding.
	if err := dec.Decode(new(json.RawMessage)); err != io.EOF {
		return nil, &ReqError{http.StatusBadRequest, "trailing-data", "request body holds more than one JSON value"}
	}
	if req.Source == "" {
		return nil, &ReqError{http.StatusBadRequest, "missing-source", `"source" is required and must be non-empty`}
	}
	if lim.MaxSourceLines > 0 {
		if n := strings.Count(req.Source, "\n") + 1; n > lim.MaxSourceLines {
			return nil, &ReqError{http.StatusRequestEntityTooLarge, "too-large",
				fmt.Sprintf("source is %d lines, limit %d", n, lim.MaxSourceLines)}
		}
	}
	if req.TimeoutMS < 0 {
		return nil, &ReqError{http.StatusBadRequest, "bad-timeout", `"timeout_ms" must be >= 0`}
	}
	if req.MaxInstrs < 0 {
		return nil, &ReqError{http.StatusBadRequest, "bad-budget", `"max_instrs" must be >= 0`}
	}
	if err := sim.ValidateEngine(req.Engine); err != nil {
		return nil, &ReqError{http.StatusBadRequest, "bad-engine", err.Error()}
	}
	if _, rerr := req.Mode(); rerr != nil {
		return nil, rerr
	}
	return &req, nil
}

// decodeError translates a json.Decoder failure into a typed rejection.
func decodeError(err error) *ReqError {
	var maxErr *http.MaxBytesError
	var unmarshalErr *json.UnmarshalTypeError
	switch {
	case errors.As(err, &maxErr):
		return &ReqError{http.StatusRequestEntityTooLarge, "too-large",
			fmt.Sprintf("request body exceeds %d bytes", maxErr.Limit)}
	case errors.As(err, &unmarshalErr):
		return &ReqError{http.StatusBadRequest, "bad-field-type",
			fmt.Sprintf("field %q: cannot decode %s as %s", unmarshalErr.Field, unmarshalErr.Value, unmarshalErr.Type)}
	case strings.Contains(err.Error(), "unknown field"):
		return &ReqError{http.StatusBadRequest, "unknown-field", err.Error()}
	}
	return &ReqError{http.StatusBadRequest, "malformed-json", err.Error()}
}

// Mode translates the request's knobs into a compilation mode, mirroring
// chowcc's flag handling: O3 + shrink-wrap (the paper's mode C) unless the
// request says otherwise.
func (req *Request) Mode() (core.Mode, *ReqError) {
	sw := true
	if req.ShrinkWrap != nil {
		sw = *req.ShrinkWrap
	}
	var mode core.Mode
	switch req.Opt {
	case "", "O3":
		if sw {
			mode = core.ModeC()
		} else {
			mode = core.ModeB()
		}
	case "O2":
		if sw {
			mode = core.ModeA()
		} else {
			mode = core.ModeBase()
		}
	default:
		return core.Mode{}, &ReqError{http.StatusBadRequest, "bad-opt",
			fmt.Sprintf("unknown opt %q (valid: O2, O3)", req.Opt)}
	}
	switch req.Regs {
	case "":
	case "caller7":
		mode.Config = mach.CallerOnly7()
		mode.Name += "/caller7"
	case "callee7":
		mode.Config = mach.CalleeOnly7()
		mode.Name += "/callee7"
	default:
		return core.Mode{}, &ReqError{http.StatusBadRequest, "bad-regs",
			fmt.Sprintf("unknown regs %q (valid: caller7, callee7)", req.Regs)}
	}
	mode.ForceOpen = req.Open
	mode.Strict = req.Strict
	return mode, nil
}

// Stats is the run-statistics slice of a response.
type Stats struct {
	Cycles        int64 `json:"cycles"`
	Instrs        int64 `json:"instrs"`
	Calls         int64 `json:"calls"`
	Loads         int64 `json:"loads"`
	Stores        int64 `json:"stores"`
	LinkageCycles int64 `json:"linkage_cycles"`
}

// ErrorInfo is the structured error of a failed response. Class and
// ExitCode come from the shared classifier (internal/classify), so the
// daemon's error taxonomy is chowcc's exit-code taxonomy.
type ErrorInfo struct {
	Class    string `json:"class"`
	ExitCode int    `json:"exit_code"`
	Detail   string `json:"detail"`
}

// Response is the JSON body of every answer, success or failure.
type Response struct {
	OK   bool   `json:"ok"`
	Mode string `json:"mode,omitempty"`
	// Compile results.
	Funcs     int      `json:"funcs,omitempty"`
	CodeWords int      `json:"code_words,omitempty"`
	Demotions []string `json:"demotions,omitempty"`
	Disasm    string   `json:"disasm,omitempty"`
	// Incremental results (/compile-incremental).
	Incremental    bool   `json:"incremental,omitempty"`
	FallbackReason string `json:"fallback_reason,omitempty"`
	Reused         int    `json:"reused,omitempty"`
	Replanned      int    `json:"replanned,omitempty"`
	// Run results (/run).
	Output []int64 `json:"output,omitempty"`
	Engine string  `json:"engine,omitempty"`
	Stats  *Stats  `json:"stats,omitempty"`
	// Error is set exactly when OK is false.
	Error *ErrorInfo `json:"error,omitempty"`
}

// errorResponse builds the failure body for a classified compile/run error.
func errorResponse(err error) (status int, resp *Response) {
	code, label := classify.Error(err)
	return classify.HTTPStatus(code), &Response{
		OK:    false,
		Error: &ErrorInfo{Class: label, ExitCode: code, Detail: err.Error()},
	}
}

// reqErrorResponse builds the failure body for a pre-admission rejection.
func reqErrorResponse(e *ReqError) *Response {
	return &Response{OK: false, Error: &ErrorInfo{Class: e.Class, ExitCode: classify.ExitUsage, Detail: e.Detail}}
}
