package main

import (
	"bufio"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
)

// promSample is one scrape of the service's /metrics: series (name plus
// label set, exactly as exposed) to value.
type promSample map[string]float64

func scrapeMetrics(base string) (promSample, error) {
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/metrics answered %d", resp.StatusCode)
	}
	return parseProm(resp.Body)
}

// parseProm reads the Prometheus text exposition, skipping comments.
func parseProm(r io.Reader) (promSample, error) {
	out := promSample{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

// delta returns after−before for a series and whether after exposes it.
func delta(before, after promSample, series string) (float64, bool) {
	a, ok := after[series]
	return a - before[series], ok
}
