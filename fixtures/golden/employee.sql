-- Schema generated from olog 'Employee'
-- 3 types, 6 aspects, 2 facts

CREATE TABLE "department" (
    "Id" VARCHAR(255) NOT NULL,
    "name" VARCHAR(255) NOT NULL,
    "secretary" VARCHAR(255) NOT NULL,
    PRIMARY KEY ("Id"),
    FOREIGN KEY ("name") REFERENCES "string" ("Id"),
    FOREIGN KEY ("secretary") REFERENCES "employee" ("Id")
);

CREATE TABLE "employee" (
    "Id" VARCHAR(255) NOT NULL,
    "first_name" VARCHAR(255) NOT NULL,
    "last_name" VARCHAR(255) NOT NULL,
    "manager" VARCHAR(255) NOT NULL,
    "works_in" VARCHAR(255) NOT NULL,
    PRIMARY KEY ("Id"),
    FOREIGN KEY ("first_name") REFERENCES "string" ("Id"),
    FOREIGN KEY ("last_name") REFERENCES "string" ("Id"),
    FOREIGN KEY ("manager") REFERENCES "employee" ("Id"),
    FOREIGN KEY ("works_in") REFERENCES "department" ("Id")
);

CREATE TABLE "string" (
    "Id" VARCHAR(255) NOT NULL,
    PRIMARY KEY ("Id")
);

-- TYPE department: "a department"
-- TYPE employee: "an employee"
-- TYPE string: "a string of letters"
-- ASPECT first_name (employee -> string): "has as first name"
-- ASPECT last_name (employee -> string): "has as last name"
-- ASPECT manager (employee -> employee): "has as manager"
-- ASPECT name (department -> string): "has as name"
-- ASPECT secretary (department -> employee): "has as secretary"
-- ASPECT works_in (employee -> department): "works in"
-- FACT: secretary;works_in = id(department)
-- FACT: manager;works_in = works_in
