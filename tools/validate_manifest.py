#!/usr/bin/env python3
"""Validate an aegis bench run manifest against tools/manifest_schema.json.

Standard-library only (the CI images carry no jsonschema package), so
this implements the small draft-07 subset the schema actually uses:
type, required, properties, items, enum, pattern and minimum. Unknown
keywords are ignored, matching jsonschema's permissive default.

Usage: validate_manifest.py <manifest.json> [schema.json]
Exit status 0 when valid; 1 with one line per violation otherwise.
"""

import json
import os
import re
import sys

TYPES = {
    "object": dict,
    "array": list,
    "string": str,
    "boolean": bool,
    "null": type(None),
}


def check_type(value, expected):
    if expected == "integer":
        return isinstance(value, int) and not isinstance(value, bool)
    if expected == "number":
        return (isinstance(value, (int, float))
                and not isinstance(value, bool))
    return isinstance(value, TYPES[expected])


def validate(value, schema, path, errors):
    expected = schema.get("type")
    if expected is not None and not check_type(value, expected):
        errors.append("%s: expected %s, got %s"
                      % (path, expected, type(value).__name__))
        return

    enum = schema.get("enum")
    if enum is not None and value not in enum:
        errors.append("%s: %r not one of %r" % (path, value, enum))

    pattern = schema.get("pattern")
    if pattern is not None and isinstance(value, str):
        if re.search(pattern, value) is None:
            errors.append("%s: %r does not match /%s/"
                          % (path, value, pattern))

    minimum = schema.get("minimum")
    if minimum is not None and isinstance(value, (int, float)):
        if value < minimum:
            errors.append("%s: %r below minimum %r"
                          % (path, value, minimum))

    if isinstance(value, dict):
        for name in schema.get("required", []):
            if name not in value:
                errors.append("%s: missing required key %r"
                              % (path, name))
        for name, sub in schema.get("properties", {}).items():
            if name in value:
                validate(value[name], sub, "%s.%s" % (path, name),
                         errors)

    if isinstance(value, list):
        items = schema.get("items")
        if items is not None:
            for i, element in enumerate(value):
                validate(element, items, "%s[%d]" % (path, i), errors)


def check_timeseries(manifest, errors):
    """Cross-field checks the schema subset cannot express: every row
    of a timeseries entry must be exactly as wide as its columns list,
    a v4+ manifest must carry the timeseries section (possibly empty),
    and a v5 manifest its shards section, which v6 dropped."""
    version = manifest.get("schemaVersion")
    if isinstance(version, int) and version >= 4:
        if "timeseries" not in manifest:
            errors.append("$: schemaVersion %d requires a timeseries "
                          "section" % version)
    if version == 5 and "shards" not in manifest:
        errors.append("$: schemaVersion 5 requires a shards section")
    for i, series in enumerate(manifest.get("timeseries", [])):
        if not isinstance(series, dict):
            continue
        width = len(series.get("columns", []))
        for r, row in enumerate(series.get("rows", [])):
            if isinstance(row, list) and len(row) != width:
                errors.append(
                    "$.timeseries[%d] (%s) row %d: %d values for %d "
                    "columns" % (i, series.get("name", "?"), r,
                                 len(row), width))


def main(argv):
    if len(argv) not in (2, 3):
        print(__doc__.strip(), file=sys.stderr)
        return 2
    manifest_path = argv[1]
    schema_path = (argv[2] if len(argv) == 3 else
                   os.path.join(os.path.dirname(os.path.abspath(argv[0])),
                                "manifest_schema.json"))

    with open(manifest_path) as f:
        manifest = json.load(f)
    with open(schema_path) as f:
        schema = json.load(f)

    errors = []
    validate(manifest, schema, "$", errors)
    check_timeseries(manifest, errors)
    if errors:
        for e in errors:
            print("INVALID %s: %s" % (manifest_path, e))
        return 1
    print("OK %s (schema %s v%s, program %s)"
          % (manifest_path, manifest.get("schema"),
             manifest.get("schemaVersion"), manifest.get("program")))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
