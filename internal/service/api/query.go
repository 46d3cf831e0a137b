package api

import (
	"encoding/json"
	"fmt"
	"net/url"
	"reflect"
	"sort"
	"strconv"
	"strings"
)

// The SSE endpoints take the request their blocking twin decodes from a JSON
// body — SolveRequest for /v1/solve/stream, SweepRequest for
// /v1/sweep/stream — as query parameters, one per field, named by the
// field's JSON name: budgets as a comma-separated list, graph as JSON, the
// rest as plain values. EncodeQuery and DecodeQuery are the two directions
// of that one mapping, so a field added to a request type reaches the stream
// endpoints without further code.

// EncodeQuery encodes req, a SolveRequest or SweepRequest, as the query
// parameters of its stream endpoint. Zero-valued fields are omitted; the
// server reads a missing parameter as the zero value.
func EncodeQuery(req any) (url.Values, error) {
	v := reflect.Indirect(reflect.ValueOf(req))
	q := url.Values{}
	for i := 0; i < v.NumField(); i++ {
		f := v.Field(i)
		if f.IsZero() || (f.Kind() == reflect.Slice && f.Len() == 0) {
			continue
		}
		name := queryName(v.Type().Field(i))
		switch x := f.Interface().(type) {
		case string:
			q.Set(name, x)
		case int:
			q.Set(name, strconv.Itoa(x))
		case int64:
			q.Set(name, strconv.FormatInt(x, 10))
		case float64:
			q.Set(name, strconv.FormatFloat(x, 'g', -1, 64))
		case bool:
			q.Set(name, strconv.FormatBool(x))
		case []int64:
			parts := make([]string, len(x))
			for i, b := range x {
				parts[i] = strconv.FormatInt(b, 10)
			}
			q.Set(name, strings.Join(parts, ","))
		case *GraphSpec:
			spec, err := json.Marshal(x)
			if err != nil {
				return nil, fmt.Errorf("api: encoding parameter %s: %w", name, err)
			}
			q.Set(name, string(spec))
		default:
			return nil, fmt.Errorf("api: parameter %s: no query form for %T", name, x)
		}
	}
	return q, nil
}

// DecodeQuery decodes a stream endpoint's query parameters into dst, a
// *SolveRequest or *SweepRequest: each parameter sets the field of its JSON
// name. Any other parameter is rejected with an error that names it.
func DecodeQuery(q url.Values, dst any) error {
	v := reflect.ValueOf(dst).Elem()
	fields := make(map[string]reflect.Value, v.NumField())
	for i := 0; i < v.NumField(); i++ {
		fields[queryName(v.Type().Field(i))] = v.Field(i)
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

// queryName is the parameter name of a request field: its JSON name.
func queryName(f reflect.StructField) string {
	name, _, _ := strings.Cut(f.Tag.Get("json"), ",")
	return name
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
	case **GraphSpec:
		var spec GraphSpec
		err = json.Unmarshal([]byte(s), &spec)
		*p = &spec
	default:
		err = fmt.Errorf("no query form for %T", p)
	}
	return err
}
