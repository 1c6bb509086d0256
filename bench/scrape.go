package main

import (
	"encoding/json"
	"strconv"
	"strings"
)

// scrape is one reading of the server's public /metrics and /varz:
// source A of the per-layer metrics, taken around traced rounds.
type scrape struct {
	prom map[string]float64 // "name{labels}" → value
	mem  struct {
		TotalAlloc   uint64
		Mallocs      uint64
		NumGC        uint32
		PauseTotalNs uint64
	}
}

func takeScrape(c *conn) (*scrape, error) {
	s := &scrape{prom: map[string]float64{}}
	body, err := c.get("/metrics")
	if err != nil {
		return nil, err
	}
	for _, line := range strings.Split(string(body), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if v, err := strconv.ParseFloat(line[i+1:], 64); i > 0 && err == nil {
			s.prom[line[:i]] = v
		}
	}
	body, err = c.get("/varz")
	if err != nil {
		return nil, err
	}
	var varz struct {
		Memstats json.RawMessage `json:"memstats"`
	}
	if err := json.Unmarshal(body, &varz); err != nil {
		return nil, err
	}
	return s, json.Unmarshal(varz.Memstats, &s.mem)
}

// sum adds up every series of a metric family whose label part passes
// keep (nil keeps all).
func (s *scrape) sum(family string, keep func(labels string) bool) float64 {
	var total float64
	for k, v := range s.prom {
		name, labels, _ := strings.Cut(k, "{")
		if name == family && (keep == nil || keep(labels)) {
			total += v
		}
	}
	return total
}

// scrapeDelta accumulates what the server counted during the traced
// rounds: the sum of (after − before) over every bracketed round.
type scrapeDelta struct{ before, after []*scrape }

func (d *scrapeDelta) sum(family string, keep func(labels string) bool) float64 {
	var total float64
	for i := range d.before {
		total += d.after[i].sum(family, keep) - d.before[i].sum(family, keep)
	}
	return total
}

func (d *scrapeDelta) mem(field func(*scrape) float64) float64 {
	var total float64
	for i := range d.before {
		total += field(d.after[i]) - field(d.before[i])
	}
	return total
}

// labelIn keeps the series whose label `key` has one of the values.
func labelIn(key string, values ...string) func(string) bool {
	return func(labels string) bool {
		for _, v := range values {
			if strings.Contains(labels, key+`="`+v+`"`) {
				return true
			}
		}
		return false
	}
}
