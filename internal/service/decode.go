package service

// Incoming solve-plane requests are decoded strictly: a field the request
// type does not declare is a 400 that names it, so a stale or misspelled
// field cannot silently fall back to a default (a "solver":"approx" from a
// client of the retired alias would otherwise run an Optimal solve). Stored
// payloads, relayed owner responses and the client stay lenient.

import (
	"encoding/json"
	"fmt"
	"io"
	"net/url"
	"reflect"
	"sort"
	"strconv"
	"strings"

	"repro/internal/service/api"
)

// decodeStrict decodes one JSON value from r into dst, rejecting unknown
// fields at any depth.
func decodeStrict(r io.Reader, dst any) error {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	return dec.Decode(dst)
}

// requestFromQuery decodes an SSE endpoint's query parameters into dst, the
// request its blocking twin decodes from a JSON body (*api.SolveRequest or
// *api.SweepRequest). Each parameter sets the field of its JSON name, so the
// query takes exactly the body's fields: budgets as a comma-separated list,
// graph as JSON, the rest as plain values. Any other parameter is rejected.
func requestFromQuery(q url.Values, dst any) error {
	v := reflect.ValueOf(dst).Elem()
	fields := make(map[string]reflect.Value, v.NumField())
	for i := 0; i < v.NumField(); i++ {
		name, _, _ := strings.Cut(v.Type().Field(i).Tag.Get("json"), ",")
		fields[name] = v.Field(i)
	}
	names := make([]string, 0, len(q))
	for name := range q {
		names = append(names, name)
	}
	sort.Strings(names) // the same request always fails on the same parameter
	for _, name := range names {
		f, ok := fields[name]
		if !ok {
			return fmt.Errorf("unknown parameter %q", name)
		}
		if s := q.Get(name); s != "" {
			if err := setQueryField(f.Addr().Interface(), s); err != nil {
				return fmt.Errorf("parameter %s: %v", name, err)
			}
		}
	}
	return nil
}

// setQueryField parses one query value into the request field p points to.
func setQueryField(p any, s string) error {
	var err error
	switch p := p.(type) {
	case *string:
		*p = s
	case *int:
		*p, err = strconv.Atoi(s)
	case *int64:
		*p, err = strconv.ParseInt(s, 10, 64)
	case *float64:
		*p, err = strconv.ParseFloat(s, 64)
	case *bool:
		*p, err = strconv.ParseBool(s)
	case *[]int64:
		for _, part := range strings.Split(s, ",") {
			if part = strings.TrimSpace(part); part == "" {
				continue
			}
			b, err := strconv.ParseInt(part, 10, 64)
			if err != nil {
				return fmt.Errorf("%q: %v", part, err)
			}
			*p = append(*p, b)
		}
	case **api.GraphSpec:
		var spec api.GraphSpec
		err = json.Unmarshal([]byte(s), &spec)
		*p = &spec
	default:
		err = fmt.Errorf("no query form for %T", p)
	}
	return err
}
