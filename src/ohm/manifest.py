"""Manifest files: TSV tables tying audio, alignments, speakers, and
augmentation provenance together."""

import csv

from .errors import ManifestError, open_input

CORE_COLUMNS = ["audio_path", "alignment_path", "speaker_id", "utterance_id", "is_oral"]
AUG_COLUMNS = ["aug_type", "aug_param", "aug_seed"]
_NOISE_TAG = "noise_source"


def _parse_bool(value):
    value = value.strip().lower()
    if value in ("1", "true", "yes", "y"):
        return True
    if value in ("0", "false", "no", "n", ""):
        return False
    raise ManifestError(f"not a boolean: {value!r}")


def parse_number(value, cast, where, column):
    """cast(value) for a numeric cell; a ManifestError names where (path:line)
    and the column otherwise."""
    try:
        return cast(value)
    except ValueError:
        kind = "an integer" if cast is int else "a number"
        raise ManifestError(f"{where}: {column} must be {kind}, got {value!r}") from None


def read_table(path, delimiter=","):
    """Column names and (line number, row dict) pairs of a CSV or TSV file,
    skipping `#` comment lines; line numbers count the comment lines too."""
    kept = []  # file line number of each non-comment line

    def data_lines(fh):
        for number, line in enumerate(fh, start=1):
            if not line.startswith("#"):
                kept.append(number)
                yield line

    with open_input(path, ManifestError, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(data_lines(fh), delimiter=delimiter)
        if reader.fieldnames is None:
            raise ManifestError(f"{path}: empty file")
        rows = [(kept[reader.line_num - 1], row) for row in reader]
    return reader.fieldnames, rows


def read_manifest(path):
    """Read a tab-separated manifest with a header row into a list of dicts."""
    columns, table = read_table(path, delimiter="\t")
    missing = {"audio_path", "speaker_id", "utterance_id"} - set(columns)
    if missing:
        raise ManifestError(f"{path}: missing columns {sorted(missing)}")
    rows = []
    seen = set()
    for lineno, raw in table:
        row = {
            "audio_path": raw["audio_path"].strip(),
            "alignment_path": (raw.get("alignment_path") or "").strip(),
            "speaker_id": raw["speaker_id"].strip(),
            "utterance_id": raw["utterance_id"].strip(),
            "is_oral": _parse_bool(raw.get("is_oral") or "true"),
            "aug_type": (raw.get("aug_type") or "none").strip() or "none",
            "aug_param": (raw.get("aug_param") or "").strip(),
            "aug_seed": parse_number(raw.get("aug_seed") or 0, int, f"{path}:{lineno}",
                                     "aug_seed"),
        }
        key = (row["speaker_id"], row["utterance_id"], row["aug_type"], row["aug_param"])
        if key in seen:
            raise ManifestError(f"{path}:{lineno}: duplicate row {key}")
        seen.add(key)
        rows.append(row)
    return rows


def write_manifest(path, rows, header_comment=None):
    columns = CORE_COLUMNS + AUG_COLUMNS
    with open(path, "w", newline="", encoding="utf-8") as fh:
        if header_comment:
            for line in header_comment.splitlines():
                fh.write(f"# {line}\n")
        writer = csv.writer(fh, delimiter="\t", lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow(
                [
                    row["audio_path"],
                    row.get("alignment_path", ""),
                    row["speaker_id"],
                    row["utterance_id"],
                    "true" if row.get("is_oral", True) else "false",
                    row.get("aug_type", "none"),
                    row.get("aug_param", ""),
                    row.get("aug_seed", 0),
                ]
            )


def read_header_comments(path):
    """The `#` comment lines above the column header, as written by
    write_manifest's header_comment, with the `# ` prefix removed."""
    lines = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if not line.startswith("#"):
                break
            lines.append(line[1:].removeprefix(" ").rstrip("\n"))
    return lines


def noise_header(noise_paths):
    """Header-comment lines recording each named noise's WAV path, in the
    form read back by read_noise_paths."""
    return "\n".join(f"{_NOISE_TAG} {name}={path}" for name, path in noise_paths.items())


def read_noise_paths(path):
    """Noise name -> WAV path from the header comments written by noise_header."""
    prefix = f"{_NOISE_TAG} "
    paths = {}
    for line in read_header_comments(path):
        if line.startswith(prefix):
            name, _, wav = line[len(prefix) :].partition("=")
            paths[name] = wav
    return paths


def is_original(row):
    return row.get("aug_type", "none") in ("", "none")
