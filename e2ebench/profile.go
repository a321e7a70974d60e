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

// The CPU profile runtime/pprof writes is a gzipped protobuf
// (github.com/google/pprof/proto/profile.proto). The few fields the
// self-time attribution needs are decoded here by hand, so the
// benchmark has no dependency outside the standard library:
//
//	Profile:  2 sample, 4 location, 5 function, 6 string_table
//	Sample:   1 location_id (leaf first), 2 value
//	Location: 1 id, 4 line
//	Line:     1 function_id
//	Function: 1 id, 2 name (string table index)

// profileGroups maps a report group to the package paths it covers.
var profileGroups = []struct {
	metric string
	pkgs   []string
}{
	{"upmem", []string{"updlrm/internal/upmem"}},
	{"emt", []string{"updlrm/internal/emt"}},
	{"grace", []string{"updlrm/internal/grace"}},
	{"hotcache", []string{"updlrm/internal/hotcache"}},
	{"dense", []string{"updlrm/internal/dlrm", "updlrm/internal/mlp", "updlrm/internal/tensor"}},
	{"serve", []string{"updlrm/internal/serve"}},
	{"cluster", []string{"updlrm/internal/cluster"}},
	{"runtime", []string{"runtime", "internal/runtime"}},
}

// selfShares returns each profile group's share of the profile's self
// (leaf) CPU time, and the profile's sample count.
func selfShares(gz []byte) (map[string]float64, int64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, 0, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, 0, err
	}
	var (
		strs      []string
		funcName  = map[uint64]int64{}  // function id -> string index
		locFunc   = map[uint64]uint64{} // location id -> innermost function id
		leafCount = map[uint64]int64{}  // leaf location id -> samples
		samples   int64
	)
	err = fields(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 2: // sample
			var locs []uint64
			var val int64
			err := fields(b, func(n int, v uint64, b []byte) error {
				switch n {
				case 1:
					if b != nil {
						return packed(b, func(x uint64) { locs = append(locs, x) })
					}
					locs = append(locs, v)
				case 2:
					if b != nil {
						// The last value is the cpu/nanoseconds column.
						return packed(b, func(x uint64) { val = int64(x) })
					}
					val = int64(v)
				}
				return nil
			})
			if err != nil {
				return err
			}
			if len(locs) > 0 {
				leafCount[locs[0]] += val
				samples++
			}
		case 4: // location
			var id, fn uint64
			seenLine := false
			err := fields(b, func(n int, v uint64, b []byte) error {
				switch n {
				case 1:
					id = v
				case 4:
					if seenLine { // the first line is the innermost frame
						return nil
					}
					seenLine = true
					return fields(b, func(n int, v uint64, _ []byte) error {
						if n == 1 {
							fn = v
						}
						return nil
					})
				}
				return nil
			})
			if err != nil {
				return err
			}
			locFunc[id] = fn
		case 5: // function
			var id uint64
			var name int64
			err := fields(b, func(n int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			if err != nil {
				return err
			}
			funcName[id] = name
		case 6:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, 0, err
	}
	shares := make(map[string]float64, len(profileGroups))
	for _, g := range profileGroups {
		shares[g.metric] = 0
	}
	var total int64
	for loc, n := range leafCount {
		total += n
		idx := funcName[locFunc[loc]]
		if idx < 0 || idx >= int64(len(strs)) {
			continue
		}
		if g := groupOf(funcPackage(strs[idx])); g != "" {
			shares[g] += float64(n)
		}
	}
	if total > 0 {
		for g := range shares {
			shares[g] /= float64(total)
		}
	}
	return shares, samples, nil
}

// funcPackage extracts the import path from a symbol name such as
// "updlrm/internal/upmem.(*System).RunStepInto".
func funcPackage(sym string) string {
	slash := strings.LastIndexByte(sym, '/')
	if dot := strings.IndexByte(sym[slash+1:], '.'); dot >= 0 {
		return sym[:slash+1+dot]
	}
	return sym
}

func groupOf(pkg string) string {
	for _, g := range profileGroups {
		for _, p := range g.pkgs {
			if pkg == p || strings.HasPrefix(pkg, p+"/") {
				return g.metric
			}
		}
	}
	return ""
}

var errTruncated = errors.New("profile: truncated protobuf")

// fields walks a protobuf message, calling f with each field's number
// and either its varint value (b == nil) or its length-delimited bytes.
// Fixed-width fields are skipped.
func fields(msg []byte, f func(num int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errTruncated
		}
		msg = msg[n:]
		num, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := binary.Uvarint(msg)
			if n <= 0 {
				return errTruncated
			}
			msg = msg[n:]
			if err := f(num, v, nil); err != nil {
				return err
			}
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errTruncated
			}
			b := msg[n : n+int(l)]
			msg = msg[n+int(l):]
			if b == nil {
				b = []byte{}
			}
			if err := f(num, 0, b); err != nil {
				return err
			}
		case 1:
			if len(msg) < 8 {
				return errTruncated
			}
			msg = msg[8:]
		case 5:
			if len(msg) < 4 {
				return errTruncated
			}
			msg = msg[4:]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
	}
	return nil
}

// packed walks a packed repeated varint field.
func packed(b []byte, f func(uint64)) error {
	for len(b) > 0 {
		v, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		f(v)
		b = b[n:]
	}
	return nil
}
