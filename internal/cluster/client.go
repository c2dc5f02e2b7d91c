package cluster

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"

	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/server"
)

// NodeError is a non-2xx node response, preserving the status so the
// coordinator's failover logic can tell routing staleness (404: the node no
// longer serves the shard, or the graph id is unknown) from node trouble.
type NodeError struct {
	Status int
	Msg    string
}

func (e *NodeError) Error() string {
	return fmt.Sprintf("node responded %d: %s", e.Status, e.Msg)
}

// NodeClient speaks the node protocol to one shard node.
type NodeClient struct {
	// Addr is the node's base URL.
	Addr string
	// HTTP performs the requests; it should have no overall timeout — each
	// call's context carries the budget.
	HTTP *http.Client
}

func (c *NodeClient) url(path string) string {
	return strings.TrimSuffix(c.Addr, "/") + path
}

// injectTrace propagates the caller's trace id to the node: when the
// request context carries an active span, the node runs its own trace under
// the same id and echoes the subtree for the coordinator to graft.
func injectTrace(req *http.Request) {
	if id := obs.SpanFromContext(req.Context()).Trace().ID(); id != "" {
		req.Header.Set(obs.TraceHeader, id)
	}
}

// do runs a request and decodes a JSON body into out, converting non-2xx
// responses into errors (see nodeError).
func (c *NodeClient) do(req *http.Request, out any) error {
	injectTrace(req)
	resp, err := c.HTTP.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		return nodeError(resp)
	}
	if out == nil {
		io.Copy(io.Discard, resp.Body)
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// nodeError converts a non-2xx response into a *NodeError, or into the
// *StaleShardError a stream leg's 409 carries.
func nodeError(resp *http.Response) error {
	b, _ := io.ReadAll(io.LimitReader(resp.Body, 64<<10))
	if stale := new(StaleShardError); resp.StatusCode == http.StatusConflict && json.Unmarshal(b, stale) == nil {
		return stale
	}
	var er server.ErrorResponse
	if json.Unmarshal(b, &er) != nil || er.Error == "" {
		er.Error = strings.TrimSpace(string(b))
	}
	return &NodeError{Status: resp.StatusCode, Msg: er.Error}
}

func (c *NodeClient) getJSON(ctx context.Context, path string, out any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.url(path), nil)
	if err != nil {
		return err
	}
	return c.do(req, out)
}

func (c *NodeClient) postJSON(ctx context.Context, path string, in, out any) error {
	body, err := json.Marshal(in)
	if err != nil {
		return err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.url(path), bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	return c.do(req, out)
}

// Ready probes GET /readyz.
func (c *NodeClient) Ready(ctx context.Context) error {
	return c.getJSON(ctx, "/readyz", nil)
}

// Info fetches GET /node/info.
func (c *NodeClient) Info(ctx context.Context) (InfoResponse, error) {
	var info InfoResponse
	err := c.getJSON(ctx, "/node/info", &info)
	return info, err
}

// Metrics fetches the node's raw GET /metrics exposition (capped at 8 MiB)
// for the coordinator's federation endpoint.
func (c *NodeClient) Metrics(ctx context.Context) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.url("/metrics"), nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.HTTP.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		return nil, nodeError(resp)
	}
	return io.ReadAll(io.LimitReader(resp.Body, 8<<20))
}

// listParam renders a comma-separated query parameter value.
func listParam[T int | uint64](xs []T) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprint(x)
	}
	return strings.Join(parts, ",")
}

// Stream opens a leg over the given shards, shards[i] needed at epochs[i],
// yielding global answer ids ascending, starting strictly after `after`
// (-1 = from the start), and returns the done line. A mid-stream error, a
// truncated body, a *StaleShardError refusal, or ids or done-line
// candidates that are not strictly ascending surface as the error; a yield
// returning false ends the leg with neither.
func (c *NodeClient) Stream(ctx context.Context, shards []int, epochs []uint64, gj server.GraphJSON, after graph.ID, yield func(graph.ID) bool) (LegLine, error) {
	body, err := json.Marshal(gj)
	if err != nil {
		return LegLine{}, err
	}
	url := fmt.Sprintf("%s&after=%d&epochs=%s", c.url("/node/query?shards="+listParam(shards)), after, listParam(epochs))
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return LegLine{}, err
	}
	req.Header.Set("Content-Type", "application/json")
	injectTrace(req)
	resp, err := c.HTTP.Do(req)
	if err != nil {
		return LegLine{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return LegLine{}, nodeError(resp)
	}
	// The done line carries the leg's candidate ids, so it may be long.
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), server.MaxBodyBytes)
	prev := after
	for sc.Scan() {
		var line LegLine
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			return LegLine{}, fmt.Errorf("decoding stream line: %w", err)
		}
		switch {
		case line.Error != "":
			return LegLine{}, fmt.Errorf("node stream: %s", line.Error)
		case line.Done:
			// The coordinator merges candidates with IDSet.Union, which
			// needs them sorted.
			for i := 1; i < len(line.Candidates); i++ {
				if line.Candidates[i] <= line.Candidates[i-1] {
					return LegLine{}, fmt.Errorf("node stream: candidate %d after %d", line.Candidates[i], line.Candidates[i-1])
				}
			}
			return line, nil
		case line.ID != nil:
			if *line.ID <= prev {
				return LegLine{}, fmt.Errorf("node stream: id %d after %d", *line.ID, prev)
			}
			prev = *line.ID
			if !yield(prev) {
				return LegLine{}, nil
			}
		}
	}
	if err := sc.Err(); err != nil {
		return LegLine{}, fmt.Errorf("reading stream: %w", err)
	}
	return LegLine{}, fmt.Errorf("stream ended without done marker — node died mid-stream")
}

// Add routes an add to the node.
func (c *NodeClient) Add(ctx context.Context, req AddRequest) (MutateAck, error) {
	var ack MutateAck
	err := c.postJSON(ctx, "/node/graphs", req, &ack)
	return ack, err
}

// Remove routes a remove to the node.
func (c *NodeClient) Remove(ctx context.Context, id graph.ID, epoch uint64) (MutateAck, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodDelete,
		c.url(fmt.Sprintf("/node/graphs/%d?epoch=%d", id, epoch)), nil)
	if err != nil {
		return MutateAck{}, err
	}
	var ack MutateAck
	err = c.do(req, &ack)
	return ack, err
}

// Load asks the node to install a shard (from a peer dump, or a local
// rebuild when From is empty).
func (c *NodeClient) Load(ctx context.Context, req LoadRequest) (MutateAck, error) {
	var ack MutateAck
	err := c.postJSON(ctx, "/node/load", req, &ack)
	return ack, err
}
