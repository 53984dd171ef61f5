-- Schema generated from olog 'Factorial'
-- 5 types, 9 aspects, 4 facts

CREATE TABLE "nat" (
    "Id" VARCHAR(255) NOT NULL,
    "f" VARCHAR(255) NOT NULL,
    PRIMARY KEY ("Id"),
    FOREIGN KEY ("f") REFERENCES "res" ("Id")
);

CREATE TABLE "pair" (
    "Id" VARCHAR(255) NOT NULL,
    "m" VARCHAR(255) NOT NULL,
    "p" VARCHAR(255) NOT NULL,
    "q" VARCHAR(255) NOT NULL,
    PRIMARY KEY ("Id"),
    FOREIGN KEY ("m") REFERENCES "res" ("Id"),
    FOREIGN KEY ("p") REFERENCES "pos" ("Id"),
    FOREIGN KEY ("q") REFERENCES "res" ("Id")
);

CREATE TABLE "pos" (
    "Id" VARCHAR(255) NOT NULL,
    "d" VARCHAR(255) NOT NULL,
    "i1" VARCHAR(255) NOT NULL,
    "s" VARCHAR(255) NOT NULL,
    PRIMARY KEY ("Id"),
    FOREIGN KEY ("d") REFERENCES "nat" ("Id"),
    FOREIGN KEY ("i1") REFERENCES "nat" ("Id"),
    FOREIGN KEY ("s") REFERENCES "pair" ("Id")
);

CREATE TABLE "res" (
    "Id" VARCHAR(255) NOT NULL,
    PRIMARY KEY ("Id")
);

CREATE TABLE "zero" (
    "Id" VARCHAR(255) NOT NULL,
    "i0" VARCHAR(255) NOT NULL,
    "omega" VARCHAR(255) NOT NULL,
    PRIMARY KEY ("Id"),
    FOREIGN KEY ("i0") REFERENCES "nat" ("Id"),
    FOREIGN KEY ("omega") REFERENCES "res" ("Id")
);

-- TYPE nat: "a natural number"
-- TYPE pair: "a pair (p,q) where p is a positive natural number and q is a natural number"
-- TYPE pos: "a positive natural number"
-- TYPE res: "a natural number"
-- TYPE zero: "a number equal to zero"
-- ASPECT d (pos -> nat): "has as decrement"
-- ASPECT f (nat -> res): "has as computed value"
-- ASPECT i0 (zero -> nat): "is"
-- ASPECT i1 (pos -> nat): "is"
-- ASPECT m (pair -> res): "has as combination"
-- ASPECT omega (zero -> res): "has as base value"
-- ASPECT p (pair -> pos): "yields, via the value of p, a positive natural number"
-- ASPECT q (pair -> res): "yields, via the value of q, a natural number"
-- ASPECT s (pos -> pair): "has as recursion step"
-- FACT: i1;f = s;m
-- FACT: s;p = id(pos)
-- FACT: s;q = d;f
-- FACT: i0;f = omega
-- SKETCH: coproduct nat = pos + zero via (i1,i0)
