"""A fixed pure-Python workload that gauges how fast the machine is running right now.

It parses, groups and sorts export-like records, much as sprintlint's ingest
and lint do, but shares no code with the program under test. Run as a child
process between pipeline steps, its median time over a run tells how fast
the machine ran during that run.
"""

import json

RECORDS = 20000
ROUNDS = 4


def main() -> None:
    records = [
        {
            "id": f"c{i:06d}",
            "author": f"dev{i % 17}@team.example",
            "at": 1420416000 + i * 37,
            "files": [{"path": f"src/mod{i % 97}.py", "added": i % 13, "deleted": i % 5}],
        }
        for i in range(RECORDS)
    ]
    text = json.dumps(records)
    for _ in range(ROUNDS):
        data = json.loads(text)
        by_author: dict[str, list[int]] = {}
        for record in data:
            by_author.setdefault(record["author"], []).append(record["at"])
        ordered = sorted(data, key=lambda r: (r["author"], r["at"]))
        paths = {f["path"] for r in ordered for f in r["files"]}
        if len(paths) != 97 or len(by_author) != 17:
            raise SystemExit("reference workload computed a wrong result")


if __name__ == "__main__":
    main()
