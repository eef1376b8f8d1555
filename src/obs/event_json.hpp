// Event <-> canonical JSON. One event dumps to one compact object — the unit
// of the events.jsonl timeline format. The format is one field list per
// payload plus one for the envelope, in event.cpp, walked by both directions
// of json/binder.hpp; a kind -> payload table picks the payload type on read.
// Field order is fixed, so identical event streams serialize to identical
// bytes.
#pragma once

#include "json/json.hpp"
#include "obs/event.hpp"

namespace rpv::obs {

// {"t_us": ..., "seq": ..., "component": "...", "kind": "...", "p": {...}}.
// The "p" member is omitted for payload-less events.
[[nodiscard]] json::Value event_to_json(const Event& e);

// Inverse; throws std::runtime_error on unknown names, a payload that does
// not match the kind, or an integer that does not fit its member.
[[nodiscard]] Event event_from_json(const json::Value& v);

}  // namespace rpv::obs
