package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// profiledModules are the packages whose CPU share the traced run
// reports, as <module>.cpu_share.
var profiledModules = []string{
	"simclock", "lte", "ratecontrol", "netsim", "rtp", "video", "compress",
	"projection", "headmotion", "session", "network", "obs", "seeds",
	"metrics", "faults",
}

// moduleOf maps a profiled function name to the module that owns it:
// "lte" for poi360/internal/lte.(*Cell).pfGrant, "bench" for this
// benchmark's own main package, and "" for the standard library and the
// runtime.
func moduleOf(fn string) string {
	if rest, ok := strings.CutPrefix(fn, "poi360/internal/"); ok {
		if i := strings.IndexAny(rest, "./"); i >= 0 {
			return rest[:i]
		}
		return rest
	}
	if strings.HasPrefix(fn, "main.") {
		return "bench"
	}
	if strings.HasPrefix(fn, "poi360.") {
		return "poi360"
	}
	return ""
}

// cpuShares reads a gzipped pprof CPU profile and returns each module's
// share of the sampled CPU time. A sample is charged to the innermost
// frame that belongs to a module, so standard-library work (maps, sort,
// math/rand, allocation) counts against the module that called it;
// samples with no module frame at all (GC workers, the scheduler) go to
// "runtime".
func cpuShares(gz []byte) (map[string]float64, error) {
	p, err := parseProfile(gz)
	if err != nil {
		return nil, err
	}
	byModule := map[string]int64{}
	var total int64
	for _, s := range p.samples {
		mod := "runtime"
	frames:
		for _, loc := range s.locations {
			for _, fn := range p.locFuncs[loc] {
				if m := moduleOf(p.strings[p.funcNames[fn]]); m != "" {
					mod = m
					break frames
				}
			}
		}
		byModule[mod] += s.value
		total += s.value
	}
	shares := map[string]float64{}
	for m, v := range byModule {
		shares[m] = ratio(float64(v), float64(total))
	}
	return shares, nil
}

// profile holds the parts of a pprof profile.proto the grouping needs.
type profile struct {
	samples   []profSample
	locFuncs  map[uint64][]uint64 // location id → function ids, innermost first
	funcNames map[uint64]int64    // function id → string-table index
	strings   []string
}

type profSample struct {
	locations []uint64 // leaf first
	value     int64    // first sample value (the sample count)
}

var errProto = errors.New("malformed profile")

func parseProfile(gz []byte) (*profile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	p := &profile{locFuncs: map[uint64][]uint64{}, funcNames: map[uint64]int64{}}
	err = eachField(raw, func(num int, wire int, v uint64, b []byte) error {
		switch num {
		case 2: // sample
			var s profSample
			values := 0
			err := eachField(b, func(num int, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					return eachVarint(wire, v, b, func(x uint64) { s.locations = append(s.locations, x) })
				case 2:
					return eachVarint(wire, v, b, func(x uint64) {
						if values == 0 {
							s.value = int64(x)
						}
						values++
					})
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := eachField(b, func(num int, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // line
					return eachField(b, func(num int, wire int, v uint64, b []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locFuncs[id] = fns
			return err
		case 5: // function
			var id uint64
			var name int64
			err := eachField(b, func(num int, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			p.funcNames[id] = name
			return err
		case 6: // string table
			p.strings = append(p.strings, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, idx := range p.funcNames {
		if idx < 0 || idx >= int64(len(p.strings)) {
			return nil, errProto
		}
	}
	return p, nil
}

// eachField walks the protobuf fields of msg: varints arrive in v,
// length-delimited fields in b. Fixed-width fields are skipped.
func eachField(msg []byte, fn func(num, wire int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errProto
		}
		msg = msg[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(msg)
			if n <= 0 {
				return errProto
			}
			msg = msg[n:]
		case 1:
			if len(msg) < 8 {
				return errProto
			}
			msg = msg[8:]
			continue
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errProto
			}
			b = msg[n : n+int(l)]
			msg = msg[n+int(l):]
		case 5:
			if len(msg) < 4 {
				return errProto
			}
			msg = msg[4:]
			continue
		default:
			return errProto
		}
		if err := fn(num, wire, v, b); err != nil {
			return err
		}
	}
	return nil
}

// eachVarint yields the values of a repeated varint field, which the
// encoder writes either packed (one length-delimited run) or one per key.
func eachVarint(wire int, v uint64, b []byte, fn func(uint64)) error {
	if wire == 0 {
		fn(v)
		return nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return errProto
		}
		fn(x)
		b = b[n:]
	}
	return nil
}
