"""The ``data`` workload: a store olog checked against generated CSV tables.

Employees work in departments, projects run in departments, staffing is the
pullback of the two over the department, people are the coproduct of
employees and contractors, contacts are the pushout of employees and
contractors over liaisons, funded departments are the image of ``runs_in``,
and managers are injective. This workload is all row work and never
enumerates a path universe, so entailment changes should not move it.

A mutated copy of the tables plants counterexamples at seeded places: some
departments swap managers, which breaks ``manager;works_in = id(department)``
at exactly those departments, and one staffing row is dropped, which the
pullback check must name. Every expected answer comes from the generator.
"""

from __future__ import annotations

import csv
import random
from pathlib import Path as FsPath

DEPARTMENTS = 40
EMPLOYEES_PER_DEPARTMENT = 30
FUNDED_DEPARTMENTS = 30
PROJECTS_PER_FUNDED = 4
CONTRACTORS = 600
LIAISONS = 300
SWAPPED_PAIRS = 3
FACTS = 4
CHECKS = 6  # four sketch declarations and two injective aspects

OLOG = """\
olog Store {
  type contact "a contact"
  type contractor "a contractor"
  type department "a department"
  type employee "an employee"
  type funded "a department that runs a project"
  type liaison "a liaison between an employee and a contractor"
  type person "a person"
  type project "a project"
  type staffing "an employee and a project of the same department"
  aspect c_contact : contractor -> contact "is reached as"
  aspect c_person : contractor -> person "is"
  aspect e_contact : employee -> contact "is reached as"
  aspect e_person : employee -> person "is"
  aspect funded_dept : funded -> department "is" injective
  aspect l_con : liaison -> contractor "has as contractor"
  aspect l_emp : liaison -> employee "has as employee"
  aspect manager : department -> employee "has as manager" injective
  aspect p_funded : project -> funded "is run by"
  aspect runs_in : project -> department "runs in"
  aspect s_emp : staffing -> employee "has as employee"
  aspect s_proj : staffing -> project "has as project"
  aspect works_in : employee -> department "works in"
  fact manager;works_in = id(department)
  fact s_emp;works_in = s_proj;runs_in
  fact l_emp;e_contact = l_con;c_contact
  fact runs_in = p_funded;funded_dept
  pullback staffing = employee *_department project via (works_in,runs_in) legs (s_emp,s_proj)
  coproduct person = employee + contractor via (e_person,c_person)
  pushout contact = employee +_liaison contractor via (e_contact,c_contact) span (l_emp,l_con)
  image funded of runs_in via (p_funded,funded_dept)
}
"""

MANAGER_FACT = "manager;works_in = id(department)"


def _ids(rng: random.Random, prefix: str, n: int) -> list[str]:
    return [f"{prefix}{k}" for k in rng.sample(range(100000, 1000000), n)]


class Data:
    name = "data"

    def __init__(self, seed: int, workdir: FsPath):
        rng = random.Random(f"data:{seed}")
        depts = _ids(rng, "d", DEPARTMENTS)
        emps = _ids(rng, "e", DEPARTMENTS * EMPLOYEES_PER_DEPARTMENT)
        contractors = _ids(rng, "k", CONTRACTORS)
        works_in = {e: depts[i // EMPLOYEES_PER_DEPARTMENT] for i, e in enumerate(emps)}
        manager = {d: emps[i * EMPLOYEES_PER_DEPARTMENT] for i, d in enumerate(depts)}

        funded_depts = rng.sample(depts, FUNDED_DEPARTMENTS)
        funded_ids = _ids(rng, "f", FUNDED_DEPARTMENTS)
        funded_dept = dict(zip(funded_ids, funded_depts))
        funded_of = {d: f for f, d in funded_dept.items()}
        projects = _ids(rng, "p", FUNDED_DEPARTMENTS * PROJECTS_PER_FUNDED)
        runs_in = {p: funded_depts[i // PROJECTS_PER_FUNDED] for i, p in enumerate(projects)}

        members: dict[str, list[str]] = {}
        for e, d in works_in.items():
            members.setdefault(d, []).append(e)
        pairs = [(e, p) for p in projects for e in members[runs_in[p]]]
        staff_ids = _ids(rng, "s", len(pairs))
        staffing = dict(zip(staff_ids, pairs))

        people = _ids(rng, "n", len(emps) + len(contractors))
        e_person = dict(zip(emps, people))
        c_person = dict(zip(contractors, people[len(emps):]))

        liaisons = _ids(rng, "l", LIAISONS)
        liaised = dict(zip(rng.sample(emps, LIAISONS), rng.sample(contractors, LIAISONS)))
        link = dict(zip(liaisons, liaised.items()))
        contacts = iter(_ids(rng, "t", len(emps) + len(contractors) - LIAISONS))
        e_contact = {e: next(contacts) for e in emps}
        c_contact = {c: e_contact[e] for e, c in liaised.items()}
        for c in contractors:
            if c not in c_contact:
                c_contact[c] = next(contacts)

        tables = {
            "contact": [[t] for t in set(e_contact.values()) | set(c_contact.values())],
            "contractor": [[c, c_contact[c], c_person[c]] for c in contractors],
            "department": [[d, manager[d]] for d in depts],
            "employee": [[e, e_contact[e], e_person[e], works_in[e]] for e in emps],
            "funded": [[f, d] for f, d in funded_dept.items()],
            "liaison": [[lid, c, e] for lid, (e, c) in link.items()],
            "person": [[n] for n in people],
            "project": [[p, funded_of[runs_in[p]], runs_in[p]] for p in projects],
            "staffing": [[s, e, p] for s, (e, p) in staffing.items()],
        }
        headers = {
            "contact": ["Id"],
            "contractor": ["Id", "c_contact", "c_person"],
            "department": ["Id", "manager"],
            "employee": ["Id", "e_contact", "e_person", "works_in"],
            "funded": ["Id", "funded_dept"],
            "liaison": ["Id", "l_con", "l_emp"],
            "person": ["Id"],
            "project": ["Id", "p_funded", "runs_in"],
            "staffing": ["Id", "s_emp", "s_proj"],
        }
        for rows in tables.values():
            rows.sort()
            rng.shuffle(rows)
        self.rows = {t: len(rows) for t, rows in tables.items()}

        # Mutated copy: rotate managers within seeded department pairs and drop
        # one staffing row.
        swapped = rng.sample(depts, 2 * SWAPPED_PAIRS)
        bad_manager = dict(manager)
        for a, b in zip(swapped[::2], swapped[1::2]):
            bad_manager[a], bad_manager[b] = manager[b], manager[a]
        self.planted = sorted(swapped)
        dropped = rng.choice(staff_ids)
        self.dropped_pair = staffing[dropped]
        bad_tables = dict(tables)
        bad_tables["department"] = [[d, bad_manager[d]] for d, _ in tables["department"]]
        bad_tables["staffing"] = [r for r in tables["staffing"] if r[0] != dropped]

        self.olog_file = workdir / "store.olog"
        self.olog_file.write_text(OLOG, encoding="utf-8")
        self.good_dir, self.bad_dir = workdir / "good", workdir / "bad"
        for directory, content in ((self.good_dir, tables), (self.bad_dir, bad_tables)):
            directory.mkdir()
            for t, rows in content.items():
                with open(directory / f"{t}.csv", "w", newline="", encoding="utf-8") as fh:
                    w = csv.writer(fh, lineterminator="\n")
                    w.writerow(headers[t])
                    w.writerows(rows)

        self.staff_pairs = set(pairs)
        self.unit_of = {s: works_in[e] for s, (e, _) in staffing.items()}
        self.leg_pairs = len(emps) * len(projects)

    def bind(self, olog) -> None:
        core, flow = olog.core, olog.flow
        self.lib = olog
        spec, diags = olog.dsl.parse_olog(OLOG, str(self.olog_file))
        if spec is None:
            raise RuntimeError("store olog does not parse: " + "; ".join(map(str, diags)))
        self.spec = spec
        decl = {type(x).__name__: x for x in spec.sketch}
        self.pullback = decl["PullbackDecl"]
        self.pushout = decl["PushoutDecl"]
        self.coproduct = decl["CoproductDecl"]
        self.image = decl["ImageDecl"]
        view = core.Graph(
            types=(core.TypeNode("assignment", "an assignment"), core.TypeNode("unit", "a unit")),
            aspects=(core.Aspect("unit_of", "assignment", "unit", "belongs to"),),
        )
        self.view = flow.GraphMorphism(
            src=view,
            tgt=spec.graph,
            type_map={"assignment": "staffing", "unit": "department"},
            aspect_map={"unit_of": core.Path("staffing", ("s_emp", "works_in"))},
        )

    def job(self, tr) -> dict:
        instances, sketch, flow, sqlgen = (
            self.lib.instances, self.lib.sketch, self.lib.flow, self.lib.sqlgen,
        )
        spec, graph = self.spec, self.spec.graph
        r = {}
        d = r["load"] = tr.call(
            "instances.load_instances", instances.load_instances, self.good_dir, spec
        )
        r["satisfies"] = tr.call("instances.satisfies_spec", instances.satisfies_spec, d, spec)
        r["pullback"] = tr.call("sketch.check_pullback", sketch.check_pullback, d, self.pullback)
        r["pushout"] = tr.call("sketch.check_pushout", sketch.check_pushout, d, self.pushout)
        r["coproduct"] = tr.call(
            "sketch.check_coproduct", sketch.check_coproduct, d, self.coproduct
        )
        r["image"] = tr.call("sketch.check_image", sketch.check_image, d, graph, self.image)
        r["check_all"] = tr.call("sketch.check_all", sketch.check_all, d, spec)
        unstaffed = instances.KeyDiagram(
            sets={**d.sets, "staffing": frozenset()},
            funcs={**d.funcs, "s_emp": {}, "s_proj": {}},
        )
        r["synth"] = tr.call("sketch.synthesize", sketch.synthesize, self.pullback, unstaffed)
        r["view"] = tr.call("flow.pullback_instances", flow.pullback_instances, self.view, d)
        r["inserts"] = tr.call("sqlgen.emit_inserts", sqlgen.emit_inserts, spec, d)
        bad = r["bad_load"] = tr.call(
            "instances.load_instances", instances.load_instances, self.bad_dir, spec
        )
        r["bad_satisfies"] = tr.call(
            "instances.satisfies_spec", instances.satisfies_spec, bad, spec
        )
        r["bad_check_all"] = tr.call("sketch.check_all", sketch.check_all, bad, spec)
        return r

    def check(self, r) -> list[tuple[str, bool]]:
        fmt = self.lib.core.format_fact
        good_sizes = {t: len(r["load"].sets[t]) for t in self.rows}
        bad_sizes = {t: len(r["bad_load"].sets[t]) for t in self.rows}
        synth = r["synth"]
        synth_pairs = {
            (synth.funcs["s_emp"][k], synth.funcs["s_proj"][k]) for k in synth.sets["staffing"]
        }
        lines = r["inserts"].splitlines()
        bad_facts = {fmt(c.fact): c for c in r["bad_satisfies"].checks}
        bad_checks = {(c.kind, c.subject): c for c in r["bad_check_all"]}
        missing = f"missing tuple {self.dropped_pair}"
        return [
            ("instances.load_instances", good_sizes == self.rows),
            (
                "instances.satisfies_spec",
                r["satisfies"].satisfied and len(r["satisfies"].checks) == FACTS,
            ),
            ("sketch.check_pullback", r["pullback"].passed),
            ("sketch.check_pushout", r["pushout"].passed),
            ("sketch.check_coproduct", r["coproduct"].passed),
            ("sketch.check_image", r["image"].passed),
            (
                "sketch.check_all",
                len(r["check_all"]) == CHECKS and all(c.passed for c in r["check_all"]),
            ),
            (
                "sketch.synthesize",
                len(synth.sets["staffing"]) == len(synth_pairs)
                and synth_pairs == self.staff_pairs,
            ),
            ("flow.pullback_instances", r["view"].funcs["unit_of"] == self.unit_of),
            (
                "sqlgen.emit_inserts",
                len(lines) == sum(self.rows.values())
                and all(x.startswith("INSERT INTO ") for x in lines),
            ),
            (
                "instances.load_instances",
                bad_sizes == {**self.rows, "staffing": self.rows["staffing"] - 1},
            ),
            (
                "instances.satisfies_spec",
                sorted(ce.key for ce in bad_facts[MANAGER_FACT].counterexamples) == self.planted
                and sum(not c.satisfied for c in bad_facts.values()) == 1,
            ),
            (
                "sketch.check_all",
                not bad_checks[("pullback", "staffing")].passed
                and bad_checks[("pullback", "staffing")].witness == missing
                and sum(not c.passed for c in bad_checks.values()) == 1,
            ),
        ]

    def counts(self, r) -> dict:
        loaded = sum(len(s) for d in (r["load"], r["bad_load"]) for s in d.sets.values())
        return {
            "instances.rows_loaded": loaded,
            "sketch.pullback_rows": len(r["synth"].sets["staffing"]),
            "sketch.leg_pairs": self.leg_pairs,
        }

    def cli(self) -> list[tuple[str, list[str], int]]:
        return [
            ("cli.validate", ["validate", str(self.olog_file), "--data", str(self.good_dir)], 0),
            (
                "cli.validate_fail",
                ["validate", str(self.olog_file), "--data", str(self.bad_dir)],
                1,
            ),
        ]

    def check_cli(self, name: str, stdout: str) -> bool:
        lines = stdout.splitlines()
        if name == "cli.validate":
            return len(lines) == FACTS + CHECKS and all(
                x.endswith(": satisfied") or x.endswith(": check-passed") for x in lines
            )
        want_fact = f"fact {MANAGER_FACT}: violated (key '{self.planted[0]}':"
        want_pullback = f"pullback staffing: check-failed (missing tuple {self.dropped_pair})"
        failed = [x for x in lines if ": violated" in x or ": check-failed" in x]
        return (
            len(lines) == FACTS + CHECKS
            and len(failed) == 2
            and failed[0].startswith(want_fact)
            and failed[1] == want_pullback
        )
