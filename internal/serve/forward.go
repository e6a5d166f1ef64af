package serve

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"strings"
)

// peerHeader marks a request as already peer-forwarded. A replica that
// receives it answers locally no matter who owns the key, so a stale or
// split fleet view degrades to one extra hop instead of a forwarding
// loop.
const peerHeader = "X-Gbd-Peer"

// forwardSpec describes how to replay a request at the key's owning
// replica: the endpoint to POST and a lazy body, built only once a peer
// other than self owns the key (most lookups never forward).
type forwardSpec struct {
	endpoint string
	body     func() []byte
	// batch marks a single-item /v1/batch replay, whose answer is accepted
	// only as a non-empty line without an in-band error.
	batch bool
}

// forward routes a cache miss to the replica owning key. It returns the
// owner's rendered bytes and its upstream provenance tag when the forward
// succeeded; ok=false means the caller must compute locally — sharding
// disabled, we own the key, the request is already a forward, or the
// owner is unreachable (it is marked dead and the key re-routes).
// Forward failures never surface to the client as errors: the fallback
// is always local computation.
func (s *Server) forward(r *http.Request, key string, fwd *forwardSpec) (body []byte, upstream string, ok bool) {
	if s.peers == nil || fwd == nil || r.Header.Get(peerHeader) != "" {
		return nil, "", false
	}
	// One re-route: if the first owner fails its probe, the ring without it
	// names a successor; a second failure falls back to local compute.
	for attempt := 0; attempt < 2; attempt++ {
		member, url, self := s.peers.Route(key)
		if self {
			return nil, "", false
		}
		b, status, xcache, err := s.peerFetch(r, url+fwd.endpoint, fwd.body())
		if err != nil {
			// Transport-level failure: the peer is unreachable. Open its
			// circuit and try the re-routed owner.
			peerForwardFails.Inc()
			if s.peers.OnFailure(member) {
				peerDeaths.Inc()
			}
			continue
		}
		s.peers.OnSuccess(member)
		// The peer is alive but refused (shed, bad request), or answered a
		// batch item with an in-band error line (error=1 in its aggregate
		// header). Neither is cacheable; do not mark the peer dead —
		// owner-computes is best-effort, compute here.
		if status != http.StatusOK || fwd.batch && (len(b) == 0 || !strings.HasSuffix(xcache, ",error=0")) {
			peerForwardFails.Inc()
			return nil, "", false
		}
		return b, upstreamTag(url), true
	}
	return nil, "", false
}

// peerFetch posts payload to a peer URL and returns the response body,
// status, and X-Cache provenance (batch forwarding inspects the latter
// for per-item errors). The peer header suppresses further forwarding
// hops.
//
// The forward context derives from the inbound request context — a
// client hang-up cancels the forward — bounded by Config.PeerTimeout,
// which is what distinguishes "owner is stalled" from "computation is
// slow": a stalled owner burns one PeerTimeout, trips its breaker via
// the caller's OnFailure, and the request computes locally with most of
// its RequestTimeout still available.
func (s *Server) peerFetch(r *http.Request, url string, payload []byte) ([]byte, int, string, error) {
	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.PeerTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(payload))
	if err != nil {
		return nil, 0, "", err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(peerHeader, "1")
	resp, err := s.peerHC.Do(req)
	if err != nil {
		return nil, 0, "", err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, 0, "", err
	}
	return b, resp.StatusCode, resp.Header.Get("X-Cache"), nil
}

// upstreamTag compresses a peer URL into the X-Cache provenance suffix:
// "forward-10.0.0.2:8080" rather than the full scheme-qualified URL.
func upstreamTag(url string) string {
	tag := strings.TrimPrefix(url, "http://")
	tag = strings.TrimPrefix(tag, "https://")
	return strings.TrimSuffix(tag, "/")
}
