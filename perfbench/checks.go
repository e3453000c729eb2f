package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// meshInfo is what the checks need from one fingerprint's /v1/mesh.
type meshInfo struct {
	links  int
	set    map[uint64]bool
	degree map[uint32]int
	perIXP map[string]int
	// tailCRC hashes the body from its "links" key on, which is the
	// same for every epoch that serves this fingerprint.
	tailCRC uint32
}

func pairKey(a, b uint32) uint64 {
	if a > b {
		a, b = b, a
	}
	return uint64(a)<<32 | uint64(b)
}

type linkJSON struct {
	A    uint32   `json:"a"`
	B    uint32   `json:"b"`
	IXPs []string `json:"ixps"`
}

// GatewayChecker checks gateway answers against each other. Checks
// that need a fingerprint's mesh before it has been fetched wait until
// it arrives; Finish runs or discards what is left.
type GatewayChecker struct {
	mu         sync.Mutex
	meshes     map[string]*meshInfo
	epochLinks map[string]int       // fingerprint -> /v1/epoch links
	windows    map[string]string    // window start -> fingerprint
	commits    map[uint64]time.Time // epoch -> committed stamp
	pending    map[string][]func(*meshInfo) error
	unverified int
	deferred   map[string]int // failures found by waiting checks
}

// NewGatewayChecker returns an empty checker.
func NewGatewayChecker() *GatewayChecker {
	return &GatewayChecker{
		meshes:     map[string]*meshInfo{},
		epochLinks: map[string]int{},
		windows:    map[string]string{},
		commits:    map[uint64]time.Time{},
		pending:    map[string][]func(*meshInfo) error{},
		deferred:   map[string]int{},
	}
}

// parseETag splits `"e<epoch>-<16 hex>"`.
func parseETag(tag string) (uint64, string, bool) {
	if len(tag) < 4 || tag[0] != '"' || tag[1] != 'e' || tag[len(tag)-1] != '"' {
		return 0, "", false
	}
	epochStr, fp, ok := strings.Cut(tag[2:len(tag)-1], "-")
	if !ok || len(fp) != 16 {
		return 0, "", false
	}
	if _, err := strconv.ParseUint(fp, 16, 64); err != nil {
		return 0, "", false
	}
	epoch, err := strconv.ParseUint(epochStr, 10, 64)
	if err != nil {
		return 0, "", false
	}
	return epoch, fp, true
}

// Check implements Checker.
func (g *GatewayChecker) Check(c *Conn, r Req, resp *http.Response, body []byte) error {
	tag := resp.Header.Get("ETag")
	epoch, fp, ok := parseETag(tag)
	if !ok {
		return errors.New("etag-format")
	}
	if h := resp.Header.Get("X-MLP-Epoch"); h != strconv.FormatUint(epoch, 10) {
		return errors.New("etag-epoch")
	}
	if epoch < c.lastEpoch {
		return errors.New("stale-read")
	}
	c.lastEpoch = epoch
	if resp.StatusCode == http.StatusNotModified {
		if resp.Request.Header.Get("If-None-Match") != tag {
			return errors.New("304-tag")
		}
		return nil
	}
	path, _, _ := strings.Cut(r.Path, "?")
	switch {
	case path == "/v1/mesh":
		return g.checkMesh(epoch, fp, body)
	case path == "/v1/epoch":
		return g.checkEpoch(epoch, fp, body)
	case path == "/v1/stats":
		var v struct {
			Epoch       uint64 `json:"epoch"`
			Fingerprint string `json:"fingerprint"`
			Stats       struct {
				MeshLinks int `json:"mesh_links"`
			} `json:"stats"`
		}
		if err := parseHead(body, &v, &v.Epoch, epoch); err != nil {
			return err
		}
		if v.Fingerprint != fp {
			return errors.New("etag-fingerprint")
		}
		return g.withMesh(fp, "stats-links", func(m *meshInfo) error {
			if m.links != v.Stats.MeshLinks {
				return fmt.Errorf("stats says %d links, mesh has %d", v.Stats.MeshLinks, m.links)
			}
			return nil
		})
	case path == "/v1/ixps":
		var v struct {
			Epoch uint64 `json:"epoch"`
			IXPs  []struct {
				Name  string `json:"name"`
				Links int    `json:"links"`
			} `json:"ixps"`
		}
		if err := parseHead(body, &v, &v.Epoch, epoch); err != nil {
			return err
		}
		return g.withMesh(fp, "ixps-links", func(m *meshInfo) error {
			for _, x := range v.IXPs {
				if m.perIXP[x.Name] != x.Links {
					return fmt.Errorf("ixps says %s has %d links, mesh has %d", x.Name, x.Links, m.perIXP[x.Name])
				}
			}
			return nil
		})
	case strings.HasPrefix(path, "/v1/ixp/"):
		var v struct {
			Epoch uint64     `json:"epoch"`
			Name  string     `json:"name"`
			Links []linkJSON `json:"links"`
		}
		if err := parseHead(body, &v, &v.Epoch, epoch); err != nil {
			return err
		}
		if v.Name != strings.TrimPrefix(path, "/v1/ixp/") {
			return errors.New("ixp-name")
		}
		return g.withMesh(fp, "ixp-links", func(m *meshInfo) error {
			if len(v.Links) != m.perIXP[v.Name] {
				return fmt.Errorf("ixp %s has %d links, mesh has %d", v.Name, len(v.Links), m.perIXP[v.Name])
			}
			for _, l := range v.Links {
				if !m.set[pairKey(l.A, l.B)] {
					return fmt.Errorf("ixp %s link %d-%d not in mesh", v.Name, l.A, l.B)
				}
			}
			return nil
		})
	case strings.HasPrefix(path, "/v1/as/"):
		var v struct {
			Epoch uint64     `json:"epoch"`
			ASN   uint32     `json:"asn"`
			Links []linkJSON `json:"links"`
		}
		if err := parseHead(body, &v, &v.Epoch, epoch); err != nil {
			return err
		}
		if strconv.FormatUint(uint64(v.ASN), 10) != strings.TrimPrefix(path, "/v1/as/") {
			return errors.New("as-asn")
		}
		for _, l := range v.Links {
			if l.A != v.ASN && l.B != v.ASN {
				return errors.New("as-foreign-link")
			}
		}
		return g.withMesh(fp, "as-links", func(m *meshInfo) error {
			if len(v.Links) != m.degree[v.ASN] {
				return fmt.Errorf("as %d has %d links, mesh has %d", v.ASN, len(v.Links), m.degree[v.ASN])
			}
			return nil
		})
	case path == "/v1/link":
		var v struct {
			Epoch   uint64 `json:"epoch"`
			A       uint32 `json:"a"`
			B       uint32 `json:"b"`
			Present bool   `json:"present"`
		}
		if err := parseHead(body, &v, &v.Epoch, epoch); err != nil {
			return err
		}
		q := resp.Request.URL.Query()
		a, _ := strconv.ParseUint(q.Get("a"), 10, 32)
		b, _ := strconv.ParseUint(q.Get("b"), 10, 32)
		if pairKey(v.A, v.B) != pairKey(uint32(a), uint32(b)) {
			return errors.New("link-pair")
		}
		return g.withMesh(fp, "link-present", func(m *meshInfo) error {
			if m.set[pairKey(v.A, v.B)] != v.Present {
				return fmt.Errorf("link %d-%d present=%v disagrees with the mesh", v.A, v.B, v.Present)
			}
			return nil
		})
	}
	return errors.New("unknown-path")
}

// parseHead decodes a small body into v and checks that the epoch it
// decoded into got matches the tag's.
func parseHead(body []byte, v any, got *uint64, epoch uint64) error {
	if err := json.Unmarshal(body, v); err != nil {
		return errors.New("body-parse")
	}
	if *got != epoch {
		return errors.New("body-epoch")
	}
	return nil
}

// withMesh runs f against fingerprint fp's mesh now if it is known,
// or queues it until the mesh is fetched.
func (g *GatewayChecker) withMesh(fp, name string, f func(*meshInfo) error) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	if m := g.meshes[fp]; m != nil {
		if err := f(m); err != nil {
			return fmt.Errorf("%s: %v", name, err)
		}
		return nil
	}
	g.pending[fp] = append(g.pending[fp], func(m *meshInfo) error {
		if err := f(m); err != nil {
			return errors.New(name)
		}
		return nil
	})
	return nil
}

var (
	linksKey   = []byte(`"links":`)
	castagnoli = crc32.MakeTable(crc32.Castagnoli)
)

// checkMesh checks a /v1/mesh body and, the first time its fingerprint
// is seen, parses it in full and records it for the checks waiting on
// it.
func (g *GatewayChecker) checkMesh(epoch uint64, fp string, body []byte) error {
	i := bytes.Index(body, linksKey)
	if i < 0 {
		return errors.New("body-parse")
	}
	tailCRC := crc32.Checksum(body[i:], castagnoli)
	// The head must parse; its epoch and fingerprint must match the tag.
	var head struct {
		Epoch       uint64 `json:"epoch"`
		Fingerprint string `json:"fingerprint"`
	}
	if err := json.Unmarshal(append(append([]byte(nil), body[:i]...), []byte(`"links":[]}`)...), &head); err != nil {
		return errors.New("body-parse")
	}
	if head.Epoch != epoch {
		return errors.New("body-epoch")
	}
	if head.Fingerprint != fp {
		return errors.New("etag-fingerprint")
	}

	g.mu.Lock()
	known := g.meshes[fp]
	g.mu.Unlock()
	if known != nil {
		// Same fingerprint, same links: bytes from "links" on must be
		// identical to the body parsed in full before.
		if known.tailCRC != tailCRC {
			return errors.New("mesh-bytes")
		}
		return nil
	}

	var v struct {
		Links []linkJSON `json:"links"`
	}
	if err := json.Unmarshal(body, &v); err != nil {
		return errors.New("body-parse")
	}
	m := &meshInfo{links: len(v.Links), set: make(map[uint64]bool, len(v.Links)),
		degree: map[uint32]int{}, perIXP: map[string]int{}, tailCRC: tailCRC}
	for _, l := range v.Links {
		m.set[pairKey(l.A, l.B)] = true
		m.degree[l.A]++
		m.degree[l.B]++
		for _, x := range l.IXPs {
			m.perIXP[x]++
		}
	}
	if len(m.set) != m.links {
		return errors.New("mesh-duplicate-link")
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.meshes[fp] != nil {
		return nil
	}
	g.meshes[fp] = m
	for _, f := range g.pending[fp] {
		if err := f(m); err != nil {
			g.deferred[err.Error()]++
		}
	}
	delete(g.pending, fp)
	return nil
}

func (g *GatewayChecker) checkEpoch(epoch uint64, fp string, body []byte) error {
	var v struct {
		Epoch       uint64    `json:"epoch"`
		Fingerprint string    `json:"fingerprint"`
		WindowStart time.Time `json:"window_start"`
		Committed   time.Time `json:"committed"`
		Links       int       `json:"links"`
	}
	if err := parseHead(body, &v, &v.Epoch, epoch); err != nil {
		return err
	}
	if v.Fingerprint != fp {
		return errors.New("etag-fingerprint")
	}
	g.mu.Lock()
	w := v.WindowStart.UTC().Format(time.RFC3339)
	if prev, ok := g.windows[w]; ok && prev != fp {
		g.mu.Unlock()
		return errors.New("window-fingerprint-changed")
	}
	g.windows[w] = fp
	g.commits[epoch] = v.Committed
	if prev, ok := g.epochLinks[fp]; ok && prev != v.Links {
		g.mu.Unlock()
		return errors.New("epoch-links-changed")
	}
	g.epochLinks[fp] = v.Links
	g.mu.Unlock()
	return g.withMesh(fp, "mesh-links", func(m *meshInfo) error {
		if m.links != v.Links {
			return fmt.Errorf("epoch says %d links, mesh has %d", v.Links, m.links)
		}
		return nil
	})
}

// Known reports whether fingerprint fp's mesh has been checked.
func (g *GatewayChecker) Known(fp string) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.meshes[fp] != nil
}

// Finish returns the failures found by checks that waited for a mesh,
// and counts the checks whose mesh never arrived as unverified.
func (g *GatewayChecker) Finish() (failures map[string]int, unverified int) {
	g.mu.Lock()
	defer g.mu.Unlock()
	for fp, fs := range g.pending {
		g.unverified += len(fs)
		delete(g.pending, fp)
	}
	out := map[string]int{}
	for k, v := range g.deferred {
		out[k] = v
	}
	return out, g.unverified
}

// Commits returns the commit stamps seen, by epoch.
func (g *GatewayChecker) Commits() map[uint64]time.Time {
	g.mu.Lock()
	defer g.mu.Unlock()
	out := make(map[uint64]time.Time, len(g.commits))
	for k, v := range g.commits {
		out[k] = v
	}
	return out
}

// WindowFingerprints returns the fingerprint served per window start.
func (g *GatewayChecker) WindowFingerprints() map[string]string {
	g.mu.Lock()
	defer g.mu.Unlock()
	out := make(map[string]string, len(g.windows))
	for k, v := range g.windows {
		out[k] = v
	}
	return out
}

// WindowDigests renders one line per replay window: its start and the
// fingerprint every cycle served for it, in window order, so two
// commits' outputs can be diffed.
func (g *GatewayChecker) WindowDigests() []string {
	g.mu.Lock()
	defer g.mu.Unlock()
	starts := make([]string, 0, len(g.windows))
	for w := range g.windows {
		starts = append(starts, w)
	}
	sort.Strings(starts)
	out := make([]string, len(starts))
	for i, w := range starts {
		fp := g.windows[w]
		links := g.epochLinks[fp]
		out[i] = fmt.Sprintf("digest window %s fingerprint %s links %d", w, fp, links)
	}
	return out
}
